"""Per-site chameleon urns of the two-particle dynamics, plus an exact
small-horizon enumerator certifying agreement with the weight dynamics.

The urn representation is valid strictly before the first meeting time.
Its Monte Carlo walk is the inner pair of the coupled quadruple
(``coupling.coupled_step``).  Enumeration keeps probabilities as exact
fractions (floats are binary rationals, so any float a and delta
enumerate exactly).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .direct import ModelParams, WeightMap, right_jump_probability
from .urn import MagicUrn, Side, left_mass, reinforce

MAX_ENUM_HORIZON = 8


class SmallAPolicyError(ValueError):
    """Urn representation requested for a < 1 without the override flag."""


def initial_masses(params: ModelParams, v: int, num=float):
    """Initial (red, blue) urn masses at site v, chameleon marble excluded.

    The masses mirror the edge weights seen by the first particle to
    arrive: sites left of l0 are first reached by the left particle after
    it has traversed [v, v+1] once, and symmetrically on the right.
    ``num`` is the number type: ``float`` for the samplers, ``Fraction``
    for exact enumeration.
    """
    a, d = num(params.a), num(params.delta)
    if v < params.l0:
        return a - 1, 1 + a + d
    if v == params.l0:
        return a - 1, a + d
    if v < params.r0:
        return a, a + d
    if v == params.r0:
        return a, a - 1 + d
    return a + 1, a - 1 + d


def check_small_a_policy(params: ModelParams) -> None:
    if params.a < 1 and not params.allow_small_a:
        raise SmallAPolicyError(
            f"urn representation requires a >= 1 (got a={params.a}); "
            "pass allow_small_a to override, at the risk of negative masses"
        )


class UrnField:
    """Sparse site -> urn table, materialized lazily from the initial rows."""

    def __init__(self, params: ModelParams):
        check_small_a_policy(params)
        self.params = params
        self._urns: dict[int, MagicUrn] = {}

    def urn_at(self, v: int) -> MagicUrn:
        urn = self._urns.get(v)
        if urn is None:
            urn = self._urns[v] = MagicUrn(*initial_masses(self.params, v))
        return urn


@dataclass
class ExactDistribution:
    """Exact probabilities of truncated (mover, direction) trajectories.

    Keys are tuples of (mover, direction) pairs with 0=left, 1=right in
    both slots; branches are truncated once the particles meet.
    """

    horizon: int
    params: ModelParams
    probs: dict[tuple, Fraction]


def _enum_guard(horizon: int) -> None:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > MAX_ENUM_HORIZON:
        raise ValueError(
            f"horizon {horizon} too large for exact enumeration "
            f"(~{4 ** horizon} leaves); maximum is {MAX_ENUM_HORIZON}"
        )


def enumerate_exact(model: str, params: ModelParams, horizon: int) -> ExactDistribution:
    """Exhaustive trajectory distribution of the chosen model.

    ``model`` is "direct" (weight dynamics) or "urn" (chameleon urns).
    Both walk one recursion over (mover, direction) branches; each model
    supplies the branches of one move from the one-step kernel its
    samplers run, in exact arithmetic.  Branches are absorbed at the
    first meeting; total mass is exactly 1.
    """
    _enum_guard(horizon)
    if model == "direct":
        state, branches = WeightMap(Fraction(params.a)), _direct_branches(params)
    elif model == "urn":
        check_small_a_policy(params)
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
        p_right = right_jump_probability(weights, v, delta)
        for direction, p_dir in ((0, 1 - p_right), (1, p_right)):
            if p_dir:
                after = weights.copy()
                after.reinforce(v - 1 + direction)
                yield direction, p_dir, after
    return branches


def _urn_branches(params: ModelParams):
    """(direction, probability, urns after) of each possible draw at v.

    The future law only depends on the pooled red/blue masses, so the two
    new marbles are always booked as family marbles.
    """
    def branches(urns: dict, v: int, mover: int):
        urn = urns.get(v)
        if urn is None:
            urn = MagicUrn(*initial_masses(params, v, Fraction))
        total = urn.total
        left = left_mass(urn, Side.LEFT if mover == 0 else Side.RIGHT)
        for direction, side, mass in ((0, Side.LEFT, left), (1, Side.RIGHT, total - left)):
            if mass:
                drawn = replace(urn)
                reinforce(drawn, side, False)
                yield direction, mass / total, {**urns, v: drawn}
    return branches


def tv_distance(d1: ExactDistribution, d2: ExactDistribution) -> float:
    """Total variation distance between two exact trajectory distributions."""
    if d1.horizon != d2.horizon:
        raise ValueError(f"horizon mismatch: {d1.horizon} != {d2.horizon}")
    if d1.params != d2.params:
        raise ValueError("parameter mismatch between distributions")
    keys = set(d1.probs) | set(d2.probs)
    tv = sum(
        (abs(d1.probs.get(k, Fraction(0)) - d2.probs.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2
    return float(tv)
