"""Reference implementations that the tests compare the library against.

They are the straightforward, slow forms of what the library does fast:
the difference-recurrence experiment as a scalar loop over freshly built
streams and a memoized environment, Beta samples drawn in blocks, and
Polya urns run one run and one drawing at a time.  :class:`LargestUniform`
is a stub stream for the edge of [0, 1).
"""
from __future__ import annotations

import numpy as np

from reinforce_sim.distributions import (
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, sample_beta,
)


class LargestUniform:
    """A stream whose every uniform is 1 - 2**-53, numpy's largest ``random()``."""

    def uniform(self) -> float:
        return np.nextafter(1.0, 0.0)

    def uniforms(self, n: int) -> np.ndarray:
        return np.full(n, np.nextafter(1.0, 0.0))


def beta_samples(rng: RngStream, p: BetaParams, size: int):
    """``size`` Beta(alpha, beta) draws as an array: ``size`` gamma(alpha)
    variates, then ``size`` gamma(beta) variates, from ``rng``'s generator."""
    x = rng.gen.gamma(p.alpha, size=size)
    y = rng.gen.gamma(p.beta, size=size)
    return x / (x + y)


def polya_fractions(masses, d: float, draws: int, runs: int, rng: RngStream) -> list[list[float]]:
    """Color fractions of ``runs`` k-color Polya urns after ``draws``
    drawings, in Python floats, one run at a time.

    Drawing j of run i reads uniform ``[j, i]`` of
    ``rng.gen.random((draws, runs))``, scales it by the total mass and
    picks the first color whose running mass sum exceeds it; that color
    gains ``d``.
    """
    u = rng.gen.random((draws, runs)).tolist()
    fractions = []
    for i in range(runs):
        m = [float(x) for x in masses]
        total = sum(m)
        for j in range(draws):
            x, acc, pick = u[j][i] * total, 0.0, len(m) - 1
            for c in range(len(m) - 1):
                acc += m[c]
                if x < acc:
                    pick = c
                    break
            m[pick] += d
            total += d
        fractions.append([mass / total for mass in m])
    return fractions


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
            pv = sample_beta(self._rng, self.sampler)
            self._sites[v] = pv
        return pv


def scalar_first_returns(
    p1: BetaParams, p2: BetaParams, max_budget: int, trials: int, seed: int
) -> list[int | None]:
    """``rwre.first_returns`` as one uniform at a time on three freshly
    built streams per trial."""
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
    return first_returns
