"""Birth-death chains in random environment: transience/return-time
criteria in closed form, plus a simulator for the two-chain difference
recurrence experiment.

Sign conventions: transience to the right is governed by
E[log(p/(1-p))] > 0, while the difference-recurrence hypothesis uses
mu = E[log((1-p)/p)] > 0.  Results carry both orientations explicitly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

from .distributions import (
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, digamma, sample_beta, trial_streams,
)


class Classification(Enum):
    TRANSIENT_RIGHT = "transient_right"
    TRANSIENT_LEFT = "transient_left"
    RECURRENT = "recurrent"


_ZERO_TOL = 1e-12
# Uniforms a trial reads at first; each later read doubles, up to the cap.
# So a short trial (the median is 4 events) draws few it does not use, and a
# long one makes few reads yet holds at most two chunks.
_FIRST_CHUNK, _MAX_CHUNK = 16, 1024


@dataclass(frozen=True)
class CriterionResult:
    """Closed-form transience / return-time criteria for an iid Beta environment.

    ``mean_inverse_odds`` is E[(1-p)/p]; ``None`` marks an infinite
    expectation (alpha <= 1).  ``finite_mean_return`` holds exactly when
    alpha > 1 + beta.
    """

    params: BetaParams
    log_odds_mean: float  # E[log(p/(1-p))]; positive => drift to the right
    mu: float  # E[log((1-p)/p)], the opposite orientation
    mean_inverse_odds: float | None
    classification: Classification
    finite_mean_return: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "log_odds_mean": self.log_odds_mean,
            "mu": self.mu,
            "mean_inverse_odds": self.mean_inverse_odds,
            "classification": self.classification.value,
            "finite_mean_return": self.finite_mean_return,
        }


def criterion(p: BetaParams) -> CriterionResult:
    """Evaluate the transience and expected-return-time criteria.

    E[log(p/(1-p))] = digamma(alpha) - digamma(beta);
    E[(1-p)/p] = beta/(alpha-1) for alpha > 1, infinite otherwise.
    """
    m = digamma(p.alpha) - digamma(p.beta)
    inv = p.beta / (p.alpha - 1.0) if p.alpha > 1.0 else None
    if m > _ZERO_TOL:
        cls = Classification.TRANSIENT_RIGHT
    elif m < -_ZERO_TOL:
        cls = Classification.TRANSIENT_LEFT
    else:
        cls = Classification.RECURRENT
    return CriterionResult(
        params=p,
        log_odds_mean=m,
        mu=-m,
        mean_inverse_odds=inv,
        classification=cls,
        finite_mean_return=inv is not None and inv < 1.0,
    )


@dataclass
class RecurrenceCurve:
    """Fraction of trials whose two-chain difference returned to zero by
    each event budget, with binomial standard errors."""

    budgets: list[int]
    hit_fractions: list[float]
    stderrs: list[float]
    trials: int
    regime_ok: bool

    def rows(self):
        return [
            {"budget": b, "hit_fraction": f, "stderr": s}
            for b, f, s in zip(self.budgets, self.hit_fractions, self.stderrs)
        ]


def first_returns(
    p1: BetaParams, p2: BetaParams, max_budget: int, trials: int, seed: int
) -> list[int | None]:
    """Per trial, the first event (1, 2, ...) at which both chains of the
    difference-recurrence experiment are back at 0, or None if that does
    not happen within ``max_budget`` events.

    Chain one lives on the nonnegative sites with forward probabilities
    p1(i) (p1(0) = 1); chain two mirrors it on the nonpositive sites with
    p2.  An event takes two uniforms: the chain pick, then the step.

    Trial t moves on stream (seed, t); chain one's environment comes from
    (seed, t, ENVIRONMENT), chain two's from (seed, t, MIRROR_ENVIRONMENT).
    A chain reaches site i only after sites 1, ..., i - 1, so the draw of
    site i does not depend on the path.  Three generators serve the whole
    run: each is re-keyed to the trial's stream (its Philox counter word 2
    becomes the trial), an environment stream only once its chain needs
    site 1's draw.
    """
    env_streams = (RngStream(seed, 0, ENVIRONMENT), RngStream(seed, 0, MIRROR_ENVIRONMENT))
    params = (p1, p2)
    firsts = []
    for trial, walk in enumerate(trial_streams(seed, trials)):
        envs = ([1.0], [1.0])  # site k's forward probability; site 0 reflects
        z = [0, 0]  # distances of chain one and chain two from the origin
        u, i, chunk = [], 0, _FIRST_CHUNK
        first = None
        for e in range(1, max_budget + 1):
            while i + 1 >= len(u):
                u = u[i:] + walk.uniforms(chunk).tolist()
                i, chunk = 0, min(2 * chunk, _MAX_CHUNK)
            c = 0 if u[i] < 0.5 else 1
            k, env = z[c], envs[c]
            if k == len(env):
                if k == 1:
                    env_streams[c].rekey(trial)
                env.append(sample_beta(env_streams[c], params[c]))
            z[c] = k + 1 if u[i + 1] < env[k] else k - 1
            i += 2
            if z[0] == 0 and z[1] == 0:
                first = e
                break
        firsts.append(first)
    return firsts


def difference_recurrence(
    p1: BetaParams,
    p2: BetaParams,
    budgets: list[int],
    trials: int,
    seed: int,
) -> RecurrenceCurve:
    """Monte Carlo return-probability curve for the difference of two
    conditionally independent half-line chains (see :func:`first_returns`):
    the fraction of trials whose chains are both back at 0 by each budget.

    ``regime_ok`` is the hypothesis mu > 0 for both environments, tested
    as the sign beta > alpha: mu = digamma(beta) - digamma(alpha) and
    digamma is strictly increasing on (0, inf).  The sign is exact where
    the float digamma is not (it rounds mu to 0 when the shapes are one
    ulp apart), and it needs no scipy.
    """
    budgets = sorted(budgets)
    if not budgets or budgets[0] <= 0:
        raise ValueError("budgets must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    regime_ok = p1.beta > p1.alpha and p2.beta > p2.alpha
    if not regime_ok:
        warnings.warn(
            "environment parameters violate the mu > 0 hypothesis; the "
            "return probability has no guarantee in this regime",
            stacklevel=2,
        )
    firsts = first_returns(p1, p2, budgets[-1], trials, seed)
    fractions, errs = [], []
    for b in budgets:
        hits = sum(1 for f in firsts if f is not None and f <= b)
        frac = hits / trials
        fractions.append(frac)
        errs.append((frac * (1 - frac) / trials) ** 0.5)
    return RecurrenceCurve(budgets, fractions, errs, trials, regime_ok)
