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
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, digamma, sample_beta,
)


class Classification(Enum):
    TRANSIENT_RIGHT = "transient_right"
    TRANSIENT_LEFT = "transient_left"
    RECURRENT = "recurrent"


_ZERO_TOL = 1e-12


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


class BDEnvironment:
    """Per-site right-jump probabilities: iid Beta draws plus overrides.

    Sites are sampled lazily from ``rng`` in the order they are first
    visited, and memoized; ``overrides`` pre-fills the memo with exact
    values (e.g. reflecting boundaries with p = 1).
    """

    def __init__(
        self,
        sampler: BetaParams,
        rng: RngStream,
        overrides: dict[int, float] | None = None,
    ):
        self.sampler = sampler
        self._rng = rng
        self._sites: dict[int, float] = dict(overrides or {})
        for v, pv in self._sites.items():
            if not 0.0 <= pv <= 1.0:
                raise ValueError(f"override p({v})={pv} outside [0, 1]")

    def p(self, v: int) -> float:
        pv = self._sites.get(v)
        if pv is None:
            pv = float(sample_beta(self._rng, self.sampler))
            self._sites[v] = pv
        return pv


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


def difference_recurrence(
    p1: BetaParams,
    p2: BetaParams,
    budgets: list[int],
    trials: int,
    seed: int,
) -> RecurrenceCurve:
    """Monte Carlo return-probability curve for the difference of two
    conditionally independent half-line chains.

    Chain one lives on the nonnegative sites with forward probabilities
    p1(i) (p1(0) = 1); chain two mirrors it on the nonpositive sites with
    p2.  Per trial, the first event at which both chains are back at 0
    simultaneously is recorded; the curve reports the fraction of trials
    with a return by each budget.

    Trial t moves on stream (seed, t); chain one's environment comes from
    (seed, t, ENVIRONMENT), chain two's from (seed, t, MIRROR_ENVIRONMENT).
    A chain reaches site i only after sites 1, ..., i - 1, so the draw of
    site i does not depend on the path.
    """
    budgets = sorted(budgets)
    if not budgets or budgets[0] <= 0:
        raise ValueError("budgets must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    regime_ok = criterion(p1).mu > 0 and criterion(p2).mu > 0
    if not regime_ok:
        warnings.warn(
            "environment parameters violate the mu > 0 hypothesis; the "
            "return probability has no guarantee in this regime",
            stacklevel=2,
        )
    max_budget = budgets[-1]
    first_returns = []
    for trial in range(trials):
        trial_rng = RngStream(seed, trial)
        env1 = BDEnvironment(p1, RngStream(seed, trial, ENVIRONMENT), overrides={0: 1.0})
        env2 = BDEnvironment(p2, RngStream(seed, trial, MIRROR_ENVIRONMENT), overrides={0: 1.0})
        zr = 0  # distance of chain one from the origin (nonnegative)
        zl = 0  # distance of chain two from the origin (nonnegative)
        first = None
        for e in range(1, max_budget + 1):
            if trial_rng.uniform() < 0.5:
                zr = zr + 1 if trial_rng.uniform() < env1.p(zr) else zr - 1
            else:
                zl = zl + 1 if trial_rng.uniform() < env2.p(zl) else zl - 1
            if zr == 0 and zl == 0:
                first = e
                break
        first_returns.append(first)
    fractions, errs = [], []
    for b in budgets:
        hits = sum(1 for f in first_returns if f is not None and f <= b)
        frac = hits / trials
        fractions.append(frac)
        errs.append((frac * (1 - frac) / trials) ** 0.5)
    return RecurrenceCurve(budgets, fractions, errs, trials, regime_ok)
