"""Per-site chameleon urns of the two-particle dynamics, and their exact
comparison with the weight dynamics.

The urn representation is valid strictly before the first meeting time.
Its Monte Carlo walk is the inner pair of the coupled quadruple
(``coupling.coupled_step``).  :func:`compare_exact` runs both models
together, one breadth-first layer per event, merging the paths that reach
the same joint state; it gives the trajectory TV distance and each
model's law of the first meeting time.  Probabilities are exact fractions
(floats are binary rationals, so any float a and delta enumerate
exactly); the live states of a layer are bounded by ``MAX_LIVE_STATES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .direct import ModelParams, WeightMap, right_jump_probability
from .urn import MagicUrn, Side, left_mass, reinforce

# Joint states one layer of compare_exact may hold.  The states grow about
# 1.8-fold per event.  At a=2, delta=0.5, gap 3, horizon 11 (8,094 states
# in its last layer) runs in 2.1 s with a 56 MiB peak RSS on a 2-vCPU VM,
# and refusing horizon 12 (14,124) or more takes about 2.6 s.
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

    A node gathers the paths that reach one joint state: the two sites,
    the urns' family masses (each site's left and right jumps, so they fix
    the edge weights too) and rho = q/p, the ratio of a path's urn
    probability q to its direct probability p.  Both models are Markov in
    their states, so a node's paths share their future, and each path's
    share of the TV distance is |1 - rho| p.  A node carries its paths'
    summed p (summed q when p = 0, rho = infinity, kept as ``None``) and
    their number.  Children come from the one-step kernels the samplers
    run, in exact arithmetic, skipping a model whose probability is
    already 0; every urn draw is booked as family, since the law only
    depends on the pooled masses.  A layer of more than
    ``MAX_LIVE_STATES`` nodes raises ValueError.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    check_small_a_policy(params)
    delta, half = Fraction(params.delta), Fraction(1, 2)
    tv = Fraction(0)
    trajectories, masses = [0, 0], [Fraction(0), Fraction(0)]
    meeting = ([Fraction(0)] * (horizon + 1), [Fraction(0)] * (horizon + 1))
    # key -> [summed p (q when rho is None), paths, l, r, weights, urns, rho]
    layer = {None: [Fraction(1), 1, params.l0, params.r0, WeightMap(Fraction(params.a)), {},
                    Fraction(1)]}
    for depth in range(horizon + 1):
        children: dict = {}
        for mass, paths, l, r, weights, urns, rho in layer.values():
            if l == r or depth == horizon:
                p, q = (0, mass) if rho is None else (mass, rho * mass)
                trajectories[0] += paths if p else 0
                trajectories[1] += paths if q else 0
                masses[0] += p
                masses[1] += q
                tv += abs(p - q)
                if l == r:
                    meeting[0][depth] += p
                    meeting[1][depth] += q
                continue
            for mover, v, present in ((0, l, Side.LEFT), (1, r, Side.RIGHT)):
                urn = urns.get(v)
                if urn is None:
                    urn = MagicUrn(*initial_masses(params, v, Fraction))
                p_right = 0 if rho is None else right_jump_probability(weights, v, delta)
                q_left = 0 if rho == 0 else left_mass(urn, present) / urn.total
                for right, side in ((0, Side.LEFT), (1, Side.RIGHT)):
                    p = 0 if rho is None else (p_right if right else 1 - p_right)
                    q = 0 if rho == 0 else (1 - q_left if right else q_left)
                    if p:
                        child_rho, child_mass = (rho if q == p else rho * q / p), mass * half * p
                    elif q:
                        child_rho, child_mass = None, mass * half * q * (1 if rho is None else rho)
                    else:
                        continue
                    drawn = MagicUrn(urn.pure_red, urn.pure_blue, urn.fam_red, urn.fam_blue)
                    reinforce(drawn, side, False)
                    child_urns = {**urns, v: drawn}
                    to = v + 1 if right else v - 1
                    nl, nr = (to, r) if mover == 0 else (l, to)
                    key = (nl, nr, child_rho, frozenset(
                        (site, u.fam_red, u.fam_blue) for site, u in child_urns.items()))
                    node = children.get(key)
                    if node is not None:
                        node[0] += child_mass
                        node[1] += paths
                    elif len(children) < MAX_LIVE_STATES:
                        child_weights = weights.copy()
                        child_weights.reinforce(v - 1 + right)
                        children[key] = [child_mass, paths, nl, nr, child_weights, child_urns,
                                         child_rho]
                    else:
                        raise ValueError(
                            f"horizon {horizon} needs more than MAX_LIVE_STATES = "
                            f"{MAX_LIVE_STATES} live joint states at depth {depth + 1}"
                        )
        layer = children
    return ExactComparison(tv / 2, *trajectories, tuple(meeting[0]), tuple(meeting[1]), *masses)
