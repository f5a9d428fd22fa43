"""Birth-death chains in random environment: transience/return-time
criteria in closed form, plus a simulator for the two-chain difference
recurrence experiment, whose trials run in C: one call of ``first_returns``
(``kernels.c``, through :mod:`~reinforce_sim.native`) runs them all, keying
each trial's three Philox streams itself, bit for bit as
:class:`~reinforce_sim.distributions.RngStream` keys them, reading the
walk's words inline and drawing the environments' Betas through numpy's
C gamma draw.  :func:`first_returns` returns the int64 array that call
writes, one first return per trial, 0 for none.

Sign conventions: transience to the right is governed by
E[log(p/(1-p))] > 0, while the difference-recurrence hypothesis uses
mu = E[log((1-p)/p)] > 0.  Results carry both orientations explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, digamma
from .native import MAX_INT64, kernels


# The classes of an iid Beta environment, as :func:`classify` names them
TRANSIENT_RIGHT, TRANSIENT_LEFT, RECURRENT = "transient_right", "transient_left", "recurrent"


def classify(p: BetaParams) -> str:
    """The class of an iid Beta environment, by the sign of alpha - beta: the
    sign of E[log(p/(1-p))] = digamma(alpha) - digamma(beta), as digamma
    increases strictly, and exact where that float difference rounds to 0."""
    if p.alpha > p.beta:
        return TRANSIENT_RIGHT
    if p.alpha < p.beta:
        return TRANSIENT_LEFT
    return RECURRENT


def criterion(p: BetaParams) -> dict:
    """The closed-form transience and return-time criteria of an iid Beta
    environment, as one row: ``alpha``, ``beta``, ``log_odds_mean`` =
    E[log(p/(1-p))] = digamma(alpha) - digamma(beta) (positive => drift to
    the right), ``mu`` = E[log((1-p)/p)] (the opposite orientation),
    ``mean_inverse_odds`` = E[(1-p)/p] = beta/(alpha-1), ``None``
    (infinite) for alpha <= 1, the ``classification`` of :func:`classify`
    and ``finite_mean_return``, which holds exactly when alpha > 1 + beta."""
    m = digamma(p.alpha) - digamma(p.beta)
    inv = p.beta / (p.alpha - 1.0) if p.alpha > 1.0 else None
    return {"alpha": p.alpha, "beta": p.beta, "log_odds_mean": m, "mu": -m,
            "mean_inverse_odds": inv, "classification": classify(p),
            "finite_mean_return": inv is not None and inv < 1.0}


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
        """CSV rows ``((budget,), hit_fraction, stderr)``, one per budget."""
        return [((b,), f, s) for b, f, s in zip(self.budgets, self.hit_fractions, self.stderrs)]


def first_returns(
    p1: BetaParams, p2: BetaParams, max_budget: int, trials: int, seed: int
) -> np.ndarray:
    """Per trial, the first event (1, 2, ...) at which both chains of the
    difference-recurrence experiment are back at 0, or 0 if that does not
    happen within ``max_budget`` events, as one int64 array.

    Chain one lives on the nonnegative sites with forward probabilities
    p1(i) (p1(0) = 1); chain two mirrors it on the nonpositive sites with
    p2.  An event takes two uniforms: the chain pick, chain two when the
    first is >= 0.5 (its word's top bit), then the step.

    Trial t moves on stream (seed, t); chain one's environment comes from
    (seed, t, ENVIRONMENT), chain two's from (seed, t, MIRROR_ENVIRONMENT).
    A chain reaches site i only after sites 1, ..., i - 1, so the draw of
    site i does not depend on the path.  All trials run in one call of the
    compiled ``first_returns``, which keys each trial's three streams
    itself from the seed's key words (:attr:`RngStream.key`) and writes
    the array.  A budget past int64 runs as 2**63 - 1 events, which no
    trial reaches.
    """
    firsts = np.empty(trials, np.int64)
    shapes = (float(p1.alpha), float(p1.beta), float(p2.alpha), float(p2.beta))
    if kernels().first_returns(*RngStream(seed, 0).key, 0, trials, ENVIRONMENT,
                               MIRROR_ENVIRONMENT, *shapes, min(max_budget, MAX_INT64),
                               firsts.ctypes.data, None):
        raise MemoryError("rwre.first_returns: no memory for a chain's sites")
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

    ``regime_ok``, the hypothesis mu > 0 for both environments (both
    :func:`classify` as transient to the left), is the only report of the
    regime: outside it the curve is computed all the same.
    """
    budgets = sorted(budgets)
    if not budgets or budgets[0] <= 0:
        raise ValueError("budgets must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    regime_ok = all(classify(p) == TRANSIENT_LEFT for p in (p1, p2))
    firsts = first_returns(p1, p2, budgets[-1], trials, seed)
    # a trial counts at each budget from the first one that reaches its first
    # return; no first return passes int64, so clamped budgets count alike
    at = np.searchsorted([min(b, MAX_INT64) for b in budgets], firsts[firsts > 0])
    fractions, errs = [], []
    for hits in np.cumsum(np.bincount(at, minlength=len(budgets))).tolist():
        frac = hits / trials
        fractions.append(frac)
        errs.append((frac * (1 - frac) / trials) ** 0.5)
    return RecurrenceCurve(budgets, fractions, errs, trials, regime_ok)
