"""Reference implementations that the tests compare the library against.

They are the straightforward, slow forms of what the library does fast:
the difference-recurrence experiment as a scalar loop over freshly built
streams and a memoized environment, Beta samples drawn in blocks, and
Polya urns run one run and one drawing at a time, both models of the
two-particle dynamics enumerated one trajectory at a time, and the free
outer steps of coupled runs tallied from the walkers' positions.
:class:`LargestUniform` is a stub stream for the edge of [0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from reinforce_sim import urn_process
from reinforce_sim.coupling import CoupledState, Environment, coupled_step
from reinforce_sim.direct import ModelParams, WeightMap
from reinforce_sim.distributions import (
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, sample_beta, trial_streams,
)
from reinforce_sim.urn import MagicUrn, Side, reinforce


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


@dataclass
class ExactDistribution:
    """Exact probabilities of truncated (mover, direction) trajectories.

    Keys are tuples of (mover, direction) pairs with 0=left, 1=right in
    both slots; branches are truncated once the particles meet.
    """

    horizon: int
    params: ModelParams
    probs: dict[tuple, Fraction]


def enumerate_exact(model: str, params: ModelParams, horizon: int) -> ExactDistribution:
    """Trajectory law of the chosen model, one trajectory at a time.

    ``model`` is "direct" (weight dynamics) or "urn" (chameleon urns).
    Each move branches on mover and direction by the one-step kernel of
    the model, looked up on ``reinforce_sim.urn_process`` at call time, so
    a test that patches a kernel there perturbs this tree and
    ``urn_process.compare_exact`` alike.  Zero-probability branches are
    cut; the rest end at the first meeting or the horizon.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if model == "direct":
        state, branches = WeightMap(Fraction(params.a)), _direct_branches(params)
    elif model == "urn":
        urn_process.check_small_a_policy(params)
        state, branches = {}, _urn_branches(params)
    else:
        raise ValueError(f"unknown model {model!r}; expected 'direct' or 'urn'")
    half = Fraction(1, 2)
    probs: dict[tuple, Fraction] = {}

    def recurse(state, l: int, r: int, depth: int, prob: Fraction, traj: tuple):
        if l == r or depth == horizon:
            probs[traj] = probs.get(traj, Fraction(0)) + prob
            return
        for mover in (0, 1):
            v = l if mover == 0 else r
            for direction, p_dir, after in branches(state, v, mover):
                to = v + 1 if direction else v - 1
                nl, nr = (to, r) if mover == 0 else (l, to)
                recurse(after, nl, nr, depth + 1, prob * half * p_dir,
                        traj + ((mover, direction),))

    recurse(state, params.l0, params.r0, 0, Fraction(1), ())
    return ExactDistribution(horizon=horizon, params=params, probs=probs)


def _direct_branches(params: ModelParams):
    """(direction, probability, weights after) of each possible jump from v."""
    delta = Fraction(params.delta)

    def branches(weights: WeightMap, v: int, mover: int):
        p_right = urn_process.right_jump_probability(weights, v, delta)
        for direction, p_dir in ((0, 1 - p_right), (1, p_right)):
            if p_dir:
                after = weights.copy()
                after.reinforce(v - 1 + direction)
                yield direction, p_dir, after
    return branches


def _urn_branches(params: ModelParams):
    """(direction, probability, urns after) of each possible draw at v,
    both new marbles booked as family marbles."""
    def branches(urns: dict, v: int, mover: int):
        urn = urns.get(v)
        if urn is None:
            urn = MagicUrn(*urn_process.initial_masses(params, v, Fraction))
        total = urn.total
        left = urn_process.left_mass(urn, Side.LEFT if mover == 0 else Side.RIGHT)
        for direction, side, mass in ((0, Side.LEFT, left), (1, Side.RIGHT, total - left)):
            if mass:
                drawn = replace(urn)
                reinforce(drawn, side, False)
                yield direction, mass / total, {**urns, v: drawn}
    return branches


def tv_distance(d1: ExactDistribution, d2: ExactDistribution) -> Fraction:
    """Exact total variation distance between two trajectory distributions."""
    if d1.horizon != d2.horizon:
        raise ValueError(f"horizon mismatch: {d1.horizon} != {d2.horizon}")
    if d1.params != d2.params:
        raise ValueError("parameter mismatch between distributions")
    keys = set(d1.probs) | set(d2.probs)
    return sum(
        (abs(d1.probs.get(k, Fraction(0)) - d2.probs.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2


def free_step_tallies(params: ModelParams, seed: int, trials: int) -> dict:
    """[steps, right jumps] per (free walker, site) over the coupled runs of
    dynamics streams (seed, 0), (seed, 1), ... in the environment of trial
    0, each run stepped until the inner pair meets or the budget runs out.
    A step counts when the moving group is "lP" or "rP", at the walker's
    site before it; it is a right jump when the walker lands one site up.
    """
    env = Environment(params, RngStream(seed, 0, ENVIRONMENT))
    counts: dict[tuple[str, int], list[int]] = {}
    for trial_rng in trial_streams(seed, trials if params.l0 < params.r0 else 0):
        state = CoupledState(env)
        for _ in range(params.max_events):
            if state.l >= state.r:
                break
            lP, rP = state.lP, state.rP
            g = coupled_step(state, trial_rng)
            if g == "lP" or g == "rP":
                site = lP if g == "lP" else rP
                c = counts.setdefault((g, site), [0, 0])
                c[0] += 1
                c[1] += getattr(state, g) == site + 1
    return counts
