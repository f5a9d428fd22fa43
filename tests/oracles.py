"""Reference implementations that the tests compare the library against.

They are the straightforward, slow forms of what the library does fast:
the direct dynamics one jump at a time (:func:`direct_step`, the
bit-level reference of ``run_direct``, reads each uniform as it needs
it, and reinforces the sparse edge weights of a :class:`WeightMap`), the
exact law of the meeting count breadth first (:func:`meeting_count_law`),
the meeting table one k at a time and its CSV one row at a time,
the difference-recurrence experiment as a scalar loop over freshly
built streams and a memoized environment, Beta samples drawn in blocks, and
Polya urns run one run and one drawing at a time, both models' one-step
kernels in the number type of their masses (:func:`right_jump_probability`,
:func:`left_mass` over :func:`total_mass`), the two models of the
two-particle dynamics enumerated one trajectory at a time on those kernels
in ``Fraction``s (and walked breadth first to the first step at which
they differ), patched kernels for those enumerations and for
``urn_process.compare_exact`` to tell apart, the free
outer steps of coupled runs tallied from the walkers' positions, the
chameleon urn's draw as a function, and the coupled run drawing one
uniform at a time from its stream.  :func:`out_of_order_free_step` breaks
a coupled run's order through a real path.
:class:`ScriptedWords` is a stub stream that serves given 64-bit words,
down to the C interface of a numpy bit generator, and
:class:`LargestUniform` one whose every word is 2**64 - 1, for the edge of
[0, 1).
"""
from __future__ import annotations

import ctypes
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from reinforce_sim import __version__, urn_process
from reinforce_sim.coupling import (
    CoupledState, CouplingRunResult, Environment, SandwichViolationError, coupled_events,
    replay_record,
)
from reinforce_sim.direct import ModelParams, TrajectoryRecord
from reinforce_sim.distributions import (
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, sample_beta, trial_streams,
)
from reinforce_sim.urn import MagicUrn, NegativeMassError
from reinforce_sim.urn_process import initial_masses


# 1 - 2**-53, numpy's largest ``random()``, the uniform of the word 2**64 - 1
LARGEST = float(np.nextafter(1.0, 0.0))
_NEXT_UINT64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``, as ``numpy/random/bitgen.h`` declares it."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _NEXT_UINT64),
                ("next_uint32", ctypes.c_void_p), ("next_double", _NEXT_DOUBLE),
                ("next_raw", ctypes.c_void_p)]


class ScriptedWords:
    """A stream that serves ``words`` in order, one per draw, read through
    ``gen.random`` or, by a compiled loop, through the ``bitgen_t`` at
    ``gen.bit_generator.ctypes.bit_generator``: ``random`` and its
    ``next_double`` give the next word's uniform, its top 53 bits times
    2**-53 as numpy's Philox makes it, and its ``next_uint64`` the word
    itself (its other
    functions are NULL).  ``read`` counts the draws asked for, one past the
    script if a draw found it spent.  It is its own ``gen`` and
    ``bit_generator``."""

    def __init__(self, words):
        self.gen = self.bit_generator = self
        self._words, self.read = iter(words), 0
        self._bitgen = _BitGen(next_uint64=_NEXT_UINT64(lambda state: self.word()),
                               next_double=_NEXT_DOUBLE(lambda state: self.random()))
        self.ctypes = SimpleNamespace(bit_generator=ctypes.addressof(self._bitgen))

    def word(self) -> int:
        self.read += 1
        return next(self._words)

    def random(self, n: int | None = None):
        if n is None:
            return (self.word() >> 11) * 2.0**-53
        return np.array([self.random() for _ in range(n)])

    def uniforms(self, n: int) -> np.ndarray:
        return self.random(n)


class LargestUniform(ScriptedWords):
    """A stream whose every word is 2**64 - 1, so every uniform is :data:`LARGEST`."""

    def __init__(self):
        super().__init__(itertools.repeat(2**64 - 1))


class WeightMap(dict):
    """Sparse edge weights, keyed by the left endpoint of edge [v, v+1],
    as :func:`right_jump_probability` reads them.

    Untouched edges have weight ``a``; each traversal adds exactly 1.
    """

    def __init__(self, a):
        super().__init__()
        self.a = a

    def __missing__(self, v: int):
        return self.a

    def weight(self, v: int):
        return self[v]

    def reinforce(self, v: int) -> None:
        self[v] += 1


def right_jump_probability(weights, v: int, delta):
    """P(jump v -> v+1) = (W[v,v+1] + delta) / (W[v-1,v] + W[v,v+1] + delta),
    each W[u,u+1] read as ``weights[u]``, for u = v - 1 and v only: the
    weight dynamics' kernel in the number type of the weights."""
    wl = weights[v - 1]
    wr = weights[v]
    return (wr + delta) / (wl + wr + delta)


def total_mass(urn: MagicUrn):
    """Total drawn-from mass of ``urn``, chameleon marble included
    (``coupling.coupled_events`` sums the same fields in the same order)."""
    return urn.pure_red + urn.pure_blue + urn.fam_red + urn.fam_blue + 1


def left_mass(urn: MagicUrn, left_present: bool):
    """Mass of the marbles that send the present particle left: the red
    marbles, plus the chameleon marble when the left particle is present.

    The rest of :func:`total_mass` sends it right.  Raises NegativeMassError
    when either direction's mass is negative (only possible for a < 1).
    """
    red = urn.pure_red + urn.fam_red
    blue = urn.pure_blue + urn.fam_blue
    if left_present:
        red += 1
    else:
        blue += 1
    if red < 0 or blue < 0:
        raise NegativeMassError(
            f"effective masses went negative (red={red}, blue={blue}) "
            f"with {'left' if left_present else 'right'} particle present; urn={urn}"
        )
    return red


def direct_step(
    weights: WeightMap, positions: list[int], params: ModelParams, rng
) -> tuple[int, int, int]:
    """One jump of the direct dynamics on the next two uniforms of ``rng``,
    read one at a time: a uniform mover, then a weight-proportional
    direction.  Mutates ``weights`` and ``positions``; returns (particle,
    from, to)."""
    i = int(rng.gen.random() * len(positions))
    v = positions[i]
    if rng.gen.random() < right_jump_probability(weights, v, params.delta):
        to = v + 1
        weights.reinforce(v)
    else:
        to = v - 1
        weights.reinforce(v - 1)
    positions[i] = to
    return i, v, to


def stepped_run_direct(
    params: ModelParams, n: int, rng, stop: int | None = None
) -> TrajectoryRecord:
    """``direct.run_direct`` with its event log, one :func:`direct_step` per event."""
    positions, events, weights = [params.l0, params.r0][:n], [], WeightMap(params.a)
    meetings = int(n == 2 and params.l0 == params.r0)
    for e in range(1, params.max_events + 1):
        if stop is not None and meetings >= stop:
            break
        events.append((e, *direct_step(weights, positions, params, rng)))
        meetings += n == 2 and positions[0] == positions[1]
    return TrajectoryRecord(meetings, len(events), positions, events)


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
    p1: BetaParams, p2: BetaParams, max_budget: int, trials: int, seed: int,
    sites: list | None = None,
) -> list[int]:
    """``rwre.first_returns`` as one uniform at a time on three freshly
    built streams per trial, 0 for no return.  Given ``sites``, each trial
    appends to it the number of sites that chain one and chain two drew."""
    first_returns = []
    for trial in range(trials):
        trial_rng = RngStream(seed, trial)
        env1 = BDEnvironment(p1, RngStream(seed, trial, ENVIRONMENT), overrides={0: 1.0})
        env2 = BDEnvironment(p2, RngStream(seed, trial, MIRROR_ENVIRONMENT), overrides={0: 1.0})
        zr = 0  # distance of chain one from the origin (nonnegative)
        zl = 0  # distance of chain two from the origin (nonnegative)
        first = 0
        for e in range(1, max_budget + 1):
            if trial_rng.gen.random() < 0.5:
                zr = zr + 1 if trial_rng.gen.random() < env1.p(zr) else zr - 1
            else:
                zl = zl + 1 if trial_rng.gen.random() < env2.p(zl) else zl - 1
            if zr == 0 and zl == 0:
                first = e
                break
        first_returns.append(first)
        if sites is not None:
            sites.append((len(env1._sites) - 1, len(env2._sites) - 1))  # less site 0
    return first_returns


def quadratic_meeting_rows(counts: list[int]) -> list[tuple[int, float, float]]:
    """(k, P(N >= k), its standard error) for k = 1 up to the largest
    meeting count N, each k counted over every trial: the definition that
    ``direct.meeting_statistics`` computes in runs of equal frequency."""
    n = len(counts)
    rows = []
    for k in range(1, max(counts) + 1):
        f = sum(c >= k for c in counts) / n
        rows.append((k, f, (f * (1 - f) / n) ** 0.5))
    return rows


# States a layer of meeting_count_law may hold before it refuses: at a = 1,
# gap 2 and cap 3 its largest layer to horizon 10 holds 6,155
MAX_MEETING_STATES = 10_000


def meeting_count_law(params: ModelParams, horizon: int, cap: int) -> list[Fraction]:
    """The law of the meeting count N of two walkers after ``horizon``
    events of the direct dynamics, in ``Fraction``s: P(N = 0), ...,
    P(N = cap - 1) and, last, P(N >= cap).  A breadth-first pass of the
    jump chain, each event moving either walker with probability 1/2 by
    :func:`right_jump_probability` on weights a plus the traversals: a
    state is (l, r, the traversals of each edge within ``horizon`` sites of
    a start, the meetings so far capped at ``cap``), and a state that
    reaches ``cap`` meetings leaves the pass with its mass.  A layer of
    more than ``MAX_MEETING_STATES`` states raises ValueError."""
    a, delta, lo = Fraction(params.a), Fraction(params.delta), params.l0 - horizon
    p_right = {}  # (traversals of the edges left and right of a site) -> P(right)
    law = [Fraction(0)] * (cap + 1)
    crossed = (0,) * (params.r0 + horizon - lo)  # edge [v, v + 1] at v - lo
    layer = {(params.l0, params.r0, crossed, min(int(params.l0 == params.r0), cap)): Fraction(1)}
    for depth in range(horizon + 1):
        children = {}
        for (l, r, crossed, met), prob in layer.items():
            if met == cap or depth == horizon:
                law[met] += prob
                continue
            for mover, v in enumerate((l, r)):
                edges = crossed[v - 1 - lo], crossed[v - lo]
                if edges not in p_right:
                    p_right[edges] = right_jump_probability(
                        {-1: a + edges[0], 0: a + edges[1]}, 0, delta)
                for right, p in ((0, 1 - p_right[edges]), (1, p_right[edges])):
                    e = v - 1 + right - lo
                    to = v - 1 + 2 * right
                    nl, nr = (to, r) if mover == 0 else (l, to)
                    key = (nl, nr, crossed[:e] + (crossed[e] + 1,) + crossed[e + 1:],
                           min(met + (nl == nr), cap))
                    children[key] = children.get(key, 0) + prob * p / 2
        if len(children) > MAX_MEETING_STATES:
            raise ValueError(f"more than MAX_MEETING_STATES = {MAX_MEETING_STATES} states "
                             f"at depth {depth + 1}")
        layer = children
    return law


def per_row_csv(config: dict, notes: list[str], columns: tuple, rows) -> bytes:
    """The file ``cli._write_csv`` writes, each row ``(label, fraction,
    stderr)`` formatted on its own line by its own f-string."""
    lines = [f"# reinforce-sim v{__version__}", f"# config: {json.dumps(config, sort_keys=True)}"]
    lines += [f"# note: {note}" for note in notes]
    lines.append(",".join(columns))
    lines += [f"{k!r},{f!r},{s!r}" for k, f, s in rows]
    return "".join(line + "\r\n" for line in lines).encode()


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
    the model in ``Fraction``s, independent of ``urn_process``'s integer
    kernels: :func:`right_jump_probability` and :func:`left_mass`, looked
    up on this module at call time, the urns starting from
    ``urn_process.initial_masses``, looked up there at call time.
    A test that patches ``initial_masses`` perturbs this tree and
    ``urn_process.compare_exact`` alike; one that patches the direct
    kernel patches both forms.  Zero-probability branches are cut; the
    rest end at the first meeting or the horizon.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if model == "direct":
        state, branches = (), _direct_branches(params)
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
    """(direction, probability, traversed edges after) of each possible
    jump from v; the weights are rebuilt from the traversed edges."""
    a, delta = Fraction(params.a), Fraction(params.delta)

    def branches(traversed: tuple, v: int, mover: int):
        weights = WeightMap(a)
        for edge in traversed:
            weights.reinforce(edge)
        p_right = right_jump_probability(weights, v, delta)
        for direction, p_dir in ((0, 1 - p_right), (1, p_right)):
            if p_dir:
                yield direction, p_dir, traversed + (v - 1 + direction,)
    return branches


def _urn_branches(params: ModelParams):
    """(direction, probability, urns after) of each possible draw at v,
    both new marbles booked as family marbles."""
    def branches(urns: dict, v: int, mover: int):
        urn = urns.get(v)
        if urn is None:
            urn = MagicUrn(*urn_process.initial_masses(params, v, Fraction))
        total = total_mass(urn)
        left = left_mass(urn, mover == 0)
        for direction, mass in ((0, left), (1, total - left)):
            if mass:
                drawn = (replace(urn, fam_blue=urn.fam_blue + 2) if direction
                         else replace(urn, fam_red=urn.fam_red + 2))
                yield direction, mass / total, {**urns, v: drawn}
    return branches


def first_kernel_difference(params: ModelParams, horizon: int):
    """The first step, breadth first over the trajectory tree (movers and
    directions in ``compare_exact``'s order), at which the two models'
    kernels differ, as ``(depth, l, r, mover, right, site jumps, direct
    probability, urn probability)``; None if they agree up to the horizon.
    Until that step both trees hold the same paths, so one walk serves."""
    direct, urn = _direct_branches(params), _urn_branches(params)
    layer = [((), {}, params.l0, params.r0)]
    for depth in range(horizon):
        children = []
        for traversed, urns, l, r in layer:
            if l == r:
                continue
            for mover in (0, 1):
                v = (l, r)[mover]
                p = {right: (prob, after) for right, prob, after in direct(traversed, v, mover)}
                q = {right: (prob, after) for right, prob, after in urn(urns, v, mover)}
                for right in (0, 1):
                    (p_step, traversed_after), (q_step, urns_after) = (
                        p.get(right, (0, None)), q.get(right, (0, None)))
                    if p_step != q_step:
                        drawn = urns.get(v, MagicUrn(0, 0))
                        jumps = (drawn.fam_red / 2, drawn.fam_blue / 2)
                        return depth, l, r, mover, bool(right), jumps, p_step, q_step
                    if p_step:
                        to = v + 1 if right else v - 1
                        nl, nr = (to, r) if mover == 0 else (l, to)
                        children.append((traversed_after, urns_after, nl, nr))
        layer = children
    return None


def shifted_red(v0: int, shift: Fraction):
    """initial_masses with the red mass of site v0 moved by ``shift``."""
    def masses(params, v, num=float):
        red, blue = initial_masses(params, v, num)
        return (red + shift, blue) if v == v0 else (red, blue)
    return masses


def blocked_right(v0: int):
    """``urn_process.direct_kernel`` with every jump from site v0 to the right."""
    kernel = urn_process.direct_kernel

    def blocked(params):
        p_right = kernel(params)
        return lambda v, *edges: (1, 1) if v == v0 else p_right(v, *edges)
    return blocked


def blocked_right_probability(v0: int):
    """:func:`right_jump_probability` with every jump from site v0 to the
    right: :func:`blocked_right` for the trees."""
    kernel = right_jump_probability

    def probability(weights, v, delta):
        return Fraction(1) if v == v0 else kernel(weights, v, delta)
    return probability


def shifted_right(shift: Fraction):
    """``urn_process.direct_kernel`` with every right-jump probability moved by ``shift``."""
    kernel = urn_process.direct_kernel

    def shifted(params):
        p_right = kernel(params)
        return lambda *key: (Fraction(*p_right(*key)) + shift).as_integer_ratio()
    return shifted


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
            g = stream_step(state, trial_rng)
            if g == "lP" or g == "rP":
                site = lP if g == "lP" else rP
                c = counts.setdefault((g, site), [0, 0])
                c[0] += 1
                c[1] += getattr(state, g) == site + 1
    return counts


def stream_step(state: CoupledState, rng) -> str:
    """One event on the next two uniforms of ``rng``: the group's, then the draw's."""
    return one_event(state, rng.gen.random(), rng.gen.random())


def one_event(state: CoupledState, u_group: float, u_draw: float) -> str:
    """``coupled_events`` on one pair of uniforms; returns the group that
    moved, named by the position that changed: "l_group" if l moved, else
    "r_group" if r moved, else "lP" or "rP"."""
    before = state.positions()
    coupled_events(state, [u_group, u_draw])
    lP, l, r, rP = (a != b for a, b in zip(state.positions(), before))
    return "l_group" if l else "r_group" if r else "lP" if lP else "rP"


# farther than any coupled run in the tests walks from its start
FAR = 10**6


def out_of_order_free_step(n: int, calls: list):
    """An ``Environment.free_step`` to patch in: every call appends
    (walker, site) to ``calls`` and tallies its step, and the ``n``-th
    moves the walker ``FAR`` past its inner partner (lP up, rP down), so
    that the coupled kernel's own order check fires."""
    step = Environment.free_step

    def free_step(env: Environment, walker: str, v: int, u: float) -> int:
        calls.append((walker, v))
        to = step(env, walker, v, u)
        if len(calls) != n:
            return to
        return v + FAR if walker == "lP" else v - FAR
    return free_step


def magic_draw(urn: MagicUrn, left_present: bool, u: float) -> tuple[bool, bool]:
    """One drawing on uniform ``u`` with the given particle present, the
    rule ``coupling.coupled_events`` runs inline: adds two marbles of the
    drawn class to ``urn`` in place and returns (whether the jump goes
    right, whether the marble was pure).

    ``u`` picks the direction pool by mass (``left_mass`` against the
    rest), and within the pool the marble is pure when ``u`` falls below
    the pool's pure mass; a family marble or the chameleon marble adds two
    family marbles.  A negative pure mass (a < 1) makes the pure/family
    split ill-defined; the draw then goes to the pool's family marbles,
    which leaves the walk's law alone (it only depends on the pooled
    masses).
    """
    left = left_mass(urn, left_present)
    pure_red, pure_blue = urn.pure_red, urn.pure_blue
    total = pure_red + pure_blue + urn.fam_red + urn.fam_blue + 1
    if total <= 0:
        raise NegativeMassError(f"urn total mass {total} is not positive; urn={urn}")
    x = u * total
    if x < left:
        if x < pure_red:  # never for a negative pure mass: x >= 0
            urn.pure_red = pure_red + 2
            return False, True
        urn.fam_red += 2
        return False, False
    if x - left < pure_blue:
        urn.pure_blue = pure_blue + 2
        return True, True
    urn.fam_blue += 2
    return True, False


def scalar_coupled_step(state: CoupledState, rng: RngStream) -> str:
    """One event of the coupled quadruple, reading each uniform from
    ``rng`` when it needs it: the first picks the group from a table of
    the active ones, the second drives the inner group's urn draw (through
    ``left_mass`` and the urn's ``total``) or the free outer step.  The
    order is checked after the event.
    """
    if state.l >= state.r:
        raise SandwichViolationError("scalar_coupled_step called at or past the meeting time")
    l_coincident = state.lP == state.l
    r_coincident = state.rP == state.r
    groups = _SCALAR_GROUPS[l_coincident, r_coincident]
    g = groups[int(rng.gen.random() * len(groups))]
    if g == "l_group":
        v = state.l
        right, pure = _scalar_draw(state.urn_at(v), True, rng)
        state.l = v + 1 if right else v - 1
        if l_coincident:
            state.lP = v + 1 if pure and right else v - 1
    elif g == "r_group":
        v = state.r
        right, pure = _scalar_draw(state.urn_at(v), False, rng)
        state.r = v + 1 if right else v - 1
        if r_coincident:
            state.rP = v - 1 if pure and not right else v + 1
    elif g == "lP":
        state.lP = state.env.free_step(g, state.lP, rng.gen.random())
    else:
        state.rP = state.env.free_step(g, state.rP, rng.gen.random())
    if not (state.lP <= state.l <= state.r <= state.rP):
        raise SandwichViolationError(f"ordering violated at {state.positions()}")
    return g


# active clock groups by (lP == l, rP == r), in the order the uniform picks them
_SCALAR_GROUPS = {
    (True, True): ("l_group", "r_group"),
    (True, False): ("l_group", "r_group", "rP"),
    (False, True): ("l_group", "r_group", "lP"),
    (False, False): ("l_group", "r_group", "lP", "rP"),
}


def _scalar_draw(urn: MagicUrn, left_present: bool, rng: RngStream) -> tuple[bool, bool]:
    """(right, pure) of one urn drawing on the next uniform of ``rng``, and
    two marbles added to the drawn class."""
    left = left_mass(urn, left_present)
    total = total_mass(urn)
    if total <= 0:
        raise NegativeMassError(f"urn total mass {total} is not positive; urn={urn}")
    u = rng.gen.random() * total
    if u < left:
        right, pure_mass = False, urn.pure_red
    else:
        u -= left
        right, pure_mass = True, urn.pure_blue
    pure = u < pure_mass
    drawn = ("pure_" if pure else "fam_") + ("blue" if right else "red")
    setattr(urn, drawn, getattr(urn, drawn) + 2)
    return right, pure


def scalar_run_coupling(rng: RngStream, env: Environment) -> CouplingRunResult:
    """``coupling.run_coupling`` stepping :func:`scalar_coupled_step`, one
    uniform at a time from ``rng``."""
    params = env.params
    state = CoupledState(env)
    if params.l0 == params.r0:
        return CouplingRunResult(0, 0, 0, 0, rng.seed, rng.trial, state.positions())
    max_gap = state.rP - state.lP
    violations, tau1, e = 0, None, 0
    try:
        for e in range(1, params.max_events + 1):
            scalar_coupled_step(state, rng)
            max_gap = max(max_gap, state.rP - state.lP)
            if state.l == state.r:
                tau1 = e
                break
    except SandwichViolationError:
        violations = 1
    except NegativeMassError as exc:
        where = replay_record(rng.seed, rng.trial, e, state.positions())
        raise NegativeMassError(f"{where}: {exc}") from exc
    return CouplingRunResult(violations, tau1, max_gap, e, rng.seed, rng.trial, state.positions())
