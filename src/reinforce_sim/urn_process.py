"""Per-site chameleon urns of the two-particle dynamics, and their exact
comparison with the weight dynamics.

The urn representation is valid strictly before the first meeting time.
Its Monte Carlo walk is the inner pair of the coupled quadruple
(``coupling.coupled_events``).  :func:`compare_exact` runs both models
together, one breadth-first layer per event, merging the paths that reach
the same joint state; it gives the trajectory TV distance, each model's
law of the first meeting time and the first step at which the two
kernels differ.  A node is keyed by the two sites, its ratio of urn to
direct probability and one int packing the jumps from each site of a
window around the starts, sized once by the horizon, never by the gap;
moves come from a step table, and a layer's absorbed nodes are summed once.
Probabilities are exact rationals (floats are binary rationals, so any
float a and delta enumerate exactly), the kernels' values and the nodes'
masses as reduced pairs of ints; the live states of a layer are bounded
by ``MAX_LIVE_STATES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import NamedTuple

from .direct import ModelParams
from .urn import MagicUrn, NegativeMassError

# Joint states one layer of compare_exact may hold.  The states grow about
# 1.8-fold per event.  At a=2, delta=0.5, gap 3, horizon 11 (8,094 states
# in its last layer) runs in 0.05-0.10 s of process time, with a 3.6 MiB
# tracemalloc peak and a 34 MiB peak RSS for the whole command, on a
# 2-vCPU VM, and refusing horizon 12 (14,124) or more takes 0.07-0.10 s.
MAX_LIVE_STATES = 10_000

# Largest radius of compare_exact's site window, so that a huge horizon
# costs nothing.  MAX_LIVE_STATES refuses every pass before it gets this
# deep: compare_exact(p, 40) refuses at depth 13 at gap 1, 12 at gaps 2
# and 3 and 11 at gaps 5 and 8, for a in {1, 2, 1e6} and delta in
# {0, 0.5, 1e6} (no step has probability 0 and the kernels agree, so the
# layers depend only on the gap).
_WINDOW_RADIUS = 16


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


def direct_kernel(params: ModelParams):
    """The weight dynamics' right-jump probability from site v as a reduced
    pair of ints, a function of (v, traversals of [v - 1, v] and of [v, v + 1]):
    each edge weight is a plus its traversals, over one denominator with delta."""
    (an, ad), (dn, dd) = params.a.as_integer_ratio(), params.delta.as_integer_ratio()
    unit = lcm(ad, dd)
    a, delta = an * (unit // ad), dn * (unit // dd)

    def p_right(v, left_edge, right_edge):
        right, left = a + right_edge * unit + delta, a + left_edge * unit
        g = gcd(right, left)
        return right // g, (right + left) // g
    return p_right


def urn_kernel(params: ModelParams):
    """The urns' left-jump probability at site v as a reduced pair of ints, a
    function of (v, whether the left particle is present, left and right jumps
    from v): red mass over total of ``initial_masses`` (read once per site, over
    its own denominator), two family marbles per jump and the chameleon marble.
    Raises NegativeMassError when the red or the blue mass is negative."""
    sites, masses_at = {}, initial_masses

    def q_left(v, left_present, lj, rj):
        site = sites.get(v)
        if site is None:
            masses = masses_at(params, v, Fraction)
            (rn, rd), (bn, bd) = (m.as_integer_ratio() for m in masses)
            unit = lcm(rd, bd)
            site = sites[v] = masses, rn * (unit // rd), bn * (unit // bd), unit
        masses, red, blue, unit = site
        red += (2 * lj + left_present) * unit
        blue += (2 * rj + (not left_present)) * unit
        if red < 0 or blue < 0:
            raise NegativeMassError(
                f"effective masses went negative (red={Fraction(red, unit)}, blue="
                f"{Fraction(blue, unit)}) with {'left' if left_present else 'right'} particle "
                f"present; urn={MagicUrn(*masses, 2 * lj, 2 * rj)}")
        g = gcd(red, blue)
        return red // g, (red + blue) // g
    return q_left


class KernelDifference(NamedTuple):
    """A step at which the two models' kernels differ: after ``depth``
    events, at sites ``l`` and ``r``, walker ``mover`` (0 left, 1 right)
    jumps right or left from its site, whose (left, right) jumps are
    ``site_jumps``, with probability ``p_direct`` and ``p_urn``."""

    depth: int
    l: int
    r: int
    mover: int
    right: bool
    site_jumps: tuple[int, int]
    p_direct: Fraction
    p_urn: Fraction

    def __str__(self) -> str:
        walker, v = ("left", self.l) if self.mover == 0 else ("right", self.r)
        return (f"depth {self.depth} at l={self.l}, r={self.r}: the {walker} walker's "
                f"{'right' if self.right else 'left'} jump from {v} (site jumps left "
                f"{self.site_jumps[0]}, right {self.site_jumps[1]}) has probability "
                f"{self.p_direct} (direct) and {self.p_urn} (urn)")


@dataclass(frozen=True)
class ExactComparison:
    """The weight dynamics and the urn process compared exactly up to a horizon.

    ``tv_distance`` is the total variation distance between the two laws
    of (mover, direction) trajectories cut at the first meeting or the
    horizon; ``trajectories_direct`` and ``trajectories_urn`` count the
    trajectories of positive probability under each model.
    ``meeting_direct[k]`` and ``meeting_urn[k]`` are P(tau1 = k) under
    each model, for k up to the last layer the pass ran (every later k
    has probability 0); ``mass_direct`` and ``mass_urn`` are the total
    probabilities absorbed, 1 when the kernels are probability laws.
    ``first_difference`` is the first (so lowest-depth) step at which the
    kernels differ, None if they agree at every state the pass reached.
    """

    tv_distance: Fraction
    trajectories_direct: int
    trajectories_urn: int
    meeting_direct: tuple[Fraction, ...]
    meeting_urn: tuple[Fraction, ...]
    mass_direct: Fraction
    mass_urn: Fraction
    first_difference: KernelDifference | None


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
    future, and the node's share of the TV distance is t*|B - A|.  Every
    urn draw is booked as family, since the law only depends on the
    pooled masses.  A layer of more than ``MAX_LIVE_STATES`` nodes raises
    ValueError.

    A node's key is ``(l, r, (A, B), jumps)``, ``jumps`` one int holding
    each window site's left and right jumps in fields of
    ``radius.bit_length()`` bits; a child adds 1 to one field.
    The window (``_window``) is the sites within a radius of l0 or r0:
    the horizon or ``_WINDOW_RADIUS``, whichever is smaller.  Before that
    depth a mover is strictly inside it, so its edges' traversals are in
    the window too; a pass that gets that deep before the horizon raises
    ValueError (``MAX_LIVE_STATES`` refuses such a pass first).

    Moves come from a step table filled during the pass, keyed on one int
    packing the kernels' inputs (the move's four jump fields: v - 1's
    right, v's left and right and v + 1's left jumps; the field number k
    of v's left jumps; the mover bit) and which models run: not one whose
    probability is already 0.  An entry holds whether the kernels agree
    and, per direction, the target site, the jump increment, the direct
    factor (ps, 2 * pd) and the urn's qs; an agreeing move takes two
    multiplies and keeps the node's ratio tuple, any other divides out a
    gcd.  The kernels (``direct_kernel``, ``urn_kernel``), looked up by
    name once per pass so a test can patch them, give reduced pairs of
    ints, each computed once per pass and cached, which is sound only
    because they read nothing but their documented input.

    A node's t is a reduced (numerator, denominator) pair of ints, summed
    into its node inline: numerators are added when the denominators are
    equal, with one gcd per child.  The nodes a layer absorbs are summed
    once, over the lcm of their denominators, into ``Fraction``s, and the
    layer's meeting probabilities end the laws: a pass whose paths have
    all met stops there, whatever the horizon; these sums are the pass's
    only ``Fraction``s.  ``first_difference`` is the first step, in the
    pass's order, at which the kernels differ; it is built only there.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    check_small_a_policy(params)
    l0, r0 = params.l0, params.r0
    p_right, q_left = cache(direct_kernel(params)), cache(urn_kernel(params))
    radius = min(horizon, _WINDOW_RADIUS)
    base = _window(l0, r0, radius)
    # one field per window site and side; a site's jumps never exceed the
    # depth, and a pass ends at depth radius
    width = radius.bit_length()
    mask, four = (1 << width) - 1, (1 << 4 * width) - 1
    # a step's key: its four jump fields, k | mover (k is even and below the
    # window's last field) and which models run, A > 0 and B > 0
    kbits = (2 * (r0 + radius - base[1]) + 1).bit_length() + 2
    steps = {}
    tv = mass_p = mass_q = 0
    trajectories = [0, 0]
    meeting_p, meeting_q = [], []
    first = None
    # (l, r, (A, B), jumps) -> [t numerator, t denominator, paths]
    layer = {(l0, r0, (1, 1), 0): [1, 1, 1]}
    for depth in range(horizon + 1):
        if not layer:  # every path has met
            break
        if depth == radius < horizon:  # a move from here may read a site past the window
            raise ValueError(f"horizon {horizon} needs a site window of radius more than "
                             f"{_WINDOW_RADIUS} at depth {depth}")
        children: dict = {}
        absorbed = []  # (t num, t den, A, B, met) of the nodes this layer ends
        for (l, r, ratio, jumps), (tn, td, paths) in layer.items():
            A, B = ratio
            if l == r or depth == horizon:
                absorbed.append((tn, td, A, B, l == r))
                trajectories[0] += paths if B else 0
                trajectories[1] += paths if A else 0
                continue
            runs = (A > 0) << 1 | (B > 0)
            for mover, v in ((0, l), (1, r)):
                k = 2 * (v - base[mover])  # the field of v's left jumps
                # v - 1's right jumps, v's left and right jumps, v + 1's left jumps
                s = jumps >> width * (k - 1)
                at = (s & four) << kbits | (k | mover) << 2 | runs
                entry = steps.get(at)
                if entry is None:  # a model whose probability is 0 is not run
                    lj, rj = s >> width & mask, s >> 2 * width & mask
                    # an edge's traversals: right jumps from its left end
                    # and left jumps from its right end
                    pn, pd = p_right(v, (s & mask) + lj,
                                     rj + (s >> 3 * width & mask)) if B else (0, 1)
                    qn, qd = q_left(v, mover == 0, lj, rj) if A else (0, 1)
                    moves = ((v - 1, 1 << width * k, pd - pn, 2 * pd, qn),
                             (v + 1, 1 << width * (k + 1), pn, 2 * pd, qd - qn))
                    # equal left steps, qn / qd = (pd - pn) / pd, are equal right steps
                    entry = steps[at] = qn * pd == (pd - pn) * qd, moves, lj, rj, pd, qd
                agree, moves, lj, rj, pd, qd = entry
                for to, inc, ps, pd2, qs in moves:
                    if agree:  # equal steps keep the ratio: no gcd
                        if not ps:
                            continue
                        child_ratio, n, d = ratio, tn * ps, td * pd2
                    else:
                        if first is None:
                            first = KernelDifference(depth, l, r, mover, to > v, (lj, rj),
                                                     Fraction(ps, pd), Fraction(qs, qd))
                        x, y = A * qs * pd, B * ps * qd
                        if not (x or y):
                            continue
                        g = gcd(x, y)
                        child_ratio, n, d = (x // g, y // g), tn * g, td * pd2 * qd
                    child = jumps + inc
                    key = (to, r, child_ratio, child) if mover == 0 else (l, to, child_ratio, child)
                    node = children.get(key)
                    if node is not None:  # t + the node's t, over one gcd
                        nn, nd, _ = node
                        n, d = (n + nn, d) if d == nd else (n * nd + nn * d, d * nd)
                        node[2] += paths
                    elif len(children) >= MAX_LIVE_STATES:
                        raise ValueError(
                            f"horizon {horizon} needs more than MAX_LIVE_STATES = "
                            f"{MAX_LIVE_STATES} live joint states at depth {depth + 1}"
                        )
                    else:
                        node = children[key] = [0, 0, paths]
                    g = gcd(n, d)
                    node[0], node[1] = n // g, d // g
        # numerators over den of the direct and urn masses, of t*|B - A|
        # and of the met nodes' direct and urn masses
        den = lcm(*(td for _, td, *_ in absorbed))
        p_mass = q_mass = tv_mass = p_met = q_met = 0
        for tn, td, A, B, met in absorbed:
            w = tn * (den // td)
            p_mass += w * B
            q_mass += w * A
            tv_mass += w * abs(B - A)
            if met:
                p_met += w * B
                q_met += w * A
        mass_p += Fraction(p_mass, den)
        mass_q += Fraction(q_mass, den)
        tv += Fraction(tv_mass, den)
        meeting_p.append(Fraction(p_met, den))
        meeting_q.append(Fraction(q_met, den))
        layer = children
    return ExactComparison(tv / 2, *trajectories, tuple(meeting_p), tuple(meeting_q),
                           mass_p, mass_q, first)


def _window(l0: int, r0: int, radius: int) -> tuple[int, int]:
    """The sites within ``radius`` of l0 or r0, numbered: site v of mover m
    is number v - base[m].  The numbers are one range, shared by both
    walkers, when their ranges overlap or touch, else one range each."""
    if r0 - l0 <= 2 * radius + 1:
        return l0 - radius, l0 - radius
    return l0 - radius, r0 - 3 * radius - 1
