"""Per-site chameleon urns of the two-particle dynamics, and their exact
comparison with the weight dynamics.

The urn representation is valid strictly before the first meeting time.
Its Monte Carlo walk is the inner pair of the coupled quadruple
(``coupling.coupled_events``).  :func:`compare_exact` runs both models
together, one breadth-first layer per event, merging the paths that reach
the same joint state; it gives the trajectory TV distance and each
model's law of the first meeting time.  Probabilities are exact
rationals (floats are binary rationals, so any float a and delta
enumerate exactly), carried as reduced pairs of ints; the live states of
a layer are bounded by ``MAX_LIVE_STATES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .direct import ModelParams, WeightMap, right_jump_probability
from .urn import MagicUrn, left_mass

# Joint states one layer of compare_exact may hold.  The states grow about
# 1.8-fold per event.  At a=2, delta=0.5, gap 3, horizon 11 (8,094 states
# in its last layer) runs in 0.4 s with a 51 MiB peak RSS on a 2-vCPU VM,
# and refusing horizon 12 (14,124) or more takes about 0.5 s.
MAX_LIVE_STATES = 10_000


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


@dataclass(frozen=True)
class ExactComparison:
    """The weight dynamics and the urn process compared exactly up to a horizon.

    ``tv_distance`` is the total variation distance between the two laws
    of (mover, direction) trajectories cut at the first meeting or the
    horizon; ``trajectories_direct`` and ``trajectories_urn`` count the
    trajectories of positive probability under each model.
    ``meeting_direct[k]`` and ``meeting_urn[k]`` are P(tau1 = k), k <=
    horizon, under each model; ``mass_direct`` and ``mass_urn`` are the
    total probabilities absorbed, 1 when the kernels are probability laws.
    """

    tv_distance: Fraction
    trajectories_direct: int
    trajectories_urn: int
    meeting_direct: tuple[Fraction, ...]
    meeting_urn: tuple[Fraction, ...]
    mass_direct: Fraction
    mass_urn: Fraction


def compare_exact(params: ModelParams, horizon: int) -> ExactComparison:
    """Both models' trajectory laws up to ``horizon`` events, in one
    breadth-first pass over joint states.

    A node gathers the paths that reach one joint state with one ratio of
    urn to direct probability.  The state is the two sites and each
    visited site's left and right jumps (they fix the urns' family masses
    and the edge weights); the ratio is a reduced pair (A, B) of
    nonnegative ints, never both 0, and the node's paths have summed
    direct probability t*B and urn probability t*A.  B = 0 marks paths
    the weight dynamics cannot take, A = 0 paths the urns cannot take.
    Both models are Markov in their states, so a node's paths share their
    future, and the node's share of the TV distance is t*|B - A|.
    Children come from the one-step kernels the samplers run, skipping a
    model whose probability is already 0; every urn draw is booked as
    family, since the law only depends on the pooled masses.  A layer of
    more than ``MAX_LIVE_STATES`` nodes raises ValueError.

    Every probability is a reduced (numerator, denominator) pair of ints;
    the result is converted to ``Fraction`` once at the end.  Each kernel
    value is computed once per pass, in ``Fraction``s, and cached:
    ``right_jump_probability`` on the site and the traversals of its two
    edges, ``left_mass`` / ``total`` on the site, the present particle
    and the site's jumps.  A miss rebuilds the kernel's input: the edge
    weights with the sampler's own update (``WeightMap.reinforce``), the
    urn with two family marbles per jump, as ``coupled_events`` adds them.  The
    cache is sound only because these kernels read nothing but that input.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    check_small_a_policy(params)
    a, delta = Fraction(params.a), Fraction(params.delta)

    @cache
    def p_right(v, left_edge, right_edge):  # traversals of [v-1, v] and [v, v+1]
        weights = WeightMap(a)
        for edge, traversals in ((v - 1, left_edge), (v, right_edge)):
            for _ in range(traversals):
                weights.reinforce(edge)
        return right_jump_probability(weights, v, delta).as_integer_ratio()

    @cache
    def q_left(v, left_present, site_jumps):  # site_jumps: (left, right) jumps from v
        urn = MagicUrn(*initial_masses(params, v, Fraction), *(2 * n for n in site_jumps))
        return (left_mass(urn, left_present) / urn.total).as_integer_ratio()

    tv, masses = (0, 1), [(0, 1), (0, 1)]
    trajectories = [0, 0]
    meeting = ([(0, 1)] * (horizon + 1), [(0, 1)] * (horizon + 1))
    # key -> [t as (num, den), paths, l, r, {site: (left jumps, right jumps)}, (A, B)]
    layer = {None: [(1, 1), 1, params.l0, params.r0, {}, (1, 1)]}
    for depth in range(horizon + 1):
        children: dict = {}
        for (tn, td), paths, l, r, jumps, (A, B) in layer.values():
            if l == r or depth == horizon:
                p, q = (tn * B, td), (tn * A, td)
                trajectories[0] += paths if B else 0
                trajectories[1] += paths if A else 0
                masses[0], masses[1] = _add(masses[0], p), _add(masses[1], q)
                tv = _add(tv, (tn * abs(B - A), td))
                if l == r:
                    meeting[0][depth] = _add(meeting[0][depth], p)
                    meeting[1][depth] = _add(meeting[1][depth], q)
                continue
            for mover, v, left_present in ((0, l, True), (1, r, False)):
                site_jumps = jumps.get(v, (0, 0))
                # an edge's traversals: right jumps from its left end
                # and left jumps from its right end
                pn, pd = p_right(v, jumps.get(v - 1, (0, 0))[1] + site_jumps[0],
                                 site_jumps[1] + jumps.get(v + 1, (0, 0))[0]) if B else (0, 1)
                qn, qd = q_left(v, left_present, site_jumps) if A else (0, 1)
                for right in (0, 1):
                    ps, qs = (pn, qd - qn) if right else (pd - pn, qn)
                    if qs * pd == ps * qd:  # equal steps keep the ratio: no gcd
                        if not ps:
                            continue
                        ratio, t = (A, B), _reduced(tn * ps, td * 2 * pd)
                    else:
                        x, y = A * qs * pd, B * ps * qd
                        if not (x or y):
                            continue
                        g = gcd(x, y)
                        ratio, t = (x // g, y // g), _reduced(tn * g, td * 2 * pd * qd)
                    lj, rj = site_jumps
                    child_jumps = {**jumps, v: (lj, rj + 1) if right else (lj + 1, rj)}
                    to = v + 1 if right else v - 1
                    nl, nr = (to, r) if mover == 0 else (l, to)
                    key = (nl, nr, ratio, frozenset(child_jumps.items()))
                    node = children.get(key)
                    if node is not None:
                        node[0] = _add(node[0], t)
                        node[1] += paths
                    elif len(children) < MAX_LIVE_STATES:
                        children[key] = [t, paths, nl, nr, child_jumps, ratio]
                    else:
                        raise ValueError(
                            f"horizon {horizon} needs more than MAX_LIVE_STATES = "
                            f"{MAX_LIVE_STATES} live joint states at depth {depth + 1}"
                        )
        layer = children
    return ExactComparison(Fraction(*tv) / 2, *trajectories,
                           tuple(Fraction(*m) for m in meeting[0]),
                           tuple(Fraction(*m) for m in meeting[1]),
                           *(Fraction(*m) for m in masses))


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return _reduced(x[0] * y[1] + y[0] * x[1], x[1] * y[1])
