"""Ground-truth weight dynamics: one or two linearly reinforced walks on Z
that share their edge weights.

Each particle carries an independent rate-1 exponential clock, so the
embedded jump chain picks the next mover uniformly among the particles.
Continuous timestamps are optional decoration, Exp(n) holding times
from a stream of their own; every statement here is about the jump chain.
The event loop is ``run_events`` of ``kernels.c``, reached through
:mod:`~reinforce_sim.native`.  It reads each event's two words from the
trial's own numpy Philox generator, through numpy's C interface to it:
the mover is the first word's top bit, ``int(2 * u)`` for its uniform u
(0 for a lone walker), and the step the second word's uniform.  So a
trial reads exactly two uniforms per event it runs.  Python runs trials
one after another and grows the weight windows the loop runs in.
"""
from __future__ import annotations

import ctypes
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RngStream
from .native import MAX_INT64, Trial, kernels


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: initial weight a, drift delta, start sites, budgets."""

    a: float
    delta: float
    l0: int
    r0: int
    max_events: int = 0
    allow_small_a: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.a) or self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a!r}")
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta!r}")
        if self.l0 > self.r0:
            raise ValueError(f"l0 must not exceed r0, got {self.l0} > {self.r0}")
        if self.max_events < 0:
            raise ValueError("max_events must be nonnegative")

    @property
    def outside_recurrence_regime(self) -> bool:
        """Drift values >= 1 fall outside the proven recurrence regime."""
        return self.delta >= 1.0


def right_jump_probability(weights: Mapping, v: int, delta):
    """P(jump v -> v+1) = (W[v,v+1] + delta) / (W[v-1,v] + W[v,v+1] + delta),
    each W[u,u+1] read as ``weights[u]``, for u = v - 1 and v only."""
    wl = weights[v - 1]
    wr = weights[v]
    return (wr + delta) / (wl + wr + delta)


class TrajectoryRecord(NamedTuple):
    """What one trial produced: its meeting count, the events it ran, the
    walkers' final sites and, for a logged trial, its event log.

    ``meetings`` counts the events after which all walkers coincide, plus
    one when they start coincident.  The k-th meeting time is
    ``events_executed`` of the same run under ``stop_after_meetings=k``,
    when that run has ``meetings == k``.  ``events`` holds (event index,
    walker, from, to), and is empty for a trial run without its log.
    """

    meetings: int
    events_executed: int
    final_positions: list
    events: list | tuple = ()

    def to_jsonl(self, clock: RngStream | None = None) -> str:
        """One JSON line per event; its time "t" sums the Exp(n) holding
        times drawn from ``clock`` up to the event, or is null.  The lines
        are ``json.dumps`` of each event's dict, byte for byte: ints print
        alike, and a finite float's ``repr`` is its JSON text."""
        times = ["null"] * len(self.events)
        if clock is not None:
            holds = clock.gen.exponential(1.0 / len(self.final_positions), size=len(self.events))
            times = map(repr, np.cumsum(holds).tolist())
        return "".join(f'{{"e": {e}, "t": {t}, "p": {p}, "from": {frm}, "to": {to}}}\n'
                       for (e, p, frm, to), t in zip(self.events, times))


def run_direct(
    params: ModelParams,
    n_particles: int,
    rng: RngStream,
    stop_after_meetings: int | None = None,
) -> TrajectoryRecord:
    """Run up to ``params.max_events`` jumps of one walker from ``l0``, or
    of two from ``l0`` and ``r0``, count meetings and log every event.

    Event e reads the uniform pair (u, u') at 2e - 2 of ``rng``: walker
    ``int(u * n)`` moves, to the right when
    u' < (W[v,v+1] + delta) / (W[v-1,v] + W[v,v+1] + delta), and the edge it
    crosses gains 1.  The run draws exactly ``2 * events_executed``
    uniforms from ``rng``.  ``stop_after_meetings=k`` ends the run once the
    k-th meeting is seen, which keeps hitting-time experiments cheap.
    """
    if n_particles not in (1, 2):
        raise ValueError(f"n_particles must be 1 or 2, got {n_particles!r}")
    return next(_Engine(params, n_particles, stop_after_meetings).run([rng], []))


def run_direct_batch(
    params: ModelParams,
    streams: Iterable[RngStream],
    stop_after_meetings: int | None = None,
) -> Iterator[TrajectoryRecord]:
    """Run one two-walker trial per stream, without event logs.

    Yields, for each stream ``s``, the record of ``run_direct(params, 2,
    s, stop_after_meetings=...)`` bit for bit, with ``events`` left
    empty.  A trial's record is yielded when the trial ends, before the
    next stream is read, so ``streams`` may yield one stream re-keyed
    from trial to trial, as :func:`distributions.trial_streams` does.  A
    trial draws exactly two uniforms per event it runs.
    """
    return _Engine(params, 2, stop_after_meetings).run(streams)


# A walker's first window holds the edges within this many sites of its
# start, and two walkers whose windows would touch share one.  A window
# that its walker would leave doubles on that side, so a trial holds weight
# cells in proportion to the sites its walkers visit, never to their gap.
_FIRST_REACH = 32
# Events a logged trial runs per kernel call; their log codes are decoded
# after each call, so the buffer does not grow with the budget.
_LOG_EVENTS = 1 << 16


class _Engine:
    """Trials of one parameter set, run one after another by the compiled
    event loop: one C call per trial, one more after each growth of a
    weight window, and one per ``_LOG_EVENTS`` events of a logged trial."""

    def __init__(self, params: ModelParams, n: int, stop_after_meetings: int | None):
        self.params, self.n, self.a = params, n, float(params.a)
        self.kernel = kernels().run_events
        # the first meeting ends a run with any limit <= 1; INT64_MAX never comes
        self.limit = MAX_INT64 if stop_after_meetings is None else \
            min(max(stop_after_meetings, 1), MAX_INT64)
        # every trial starts from these windows, refilled with a; sites count
        # from l0, as Python ints, so any start and any gap fits
        starts = [0, params.r0 - params.l0][:n]
        t = Trial(meetings=int(n == 2 and starts[0] == starts[1]))
        self.lo, self.windows = starts[:], [np.empty(0) for _ in starts]
        for i, v in enumerate(starts):
            self._cover(t, self.lo, self.windows, i, v - _FIRST_REACH, v + _FIRST_REACH)
        self.first = bytes(t)

    def run(self, streams: Iterable[RngStream], events: list | None = None):
        """Yield the record of one trial per stream, each when its trial
        ends and before the next stream is read.  Given ``events``, each
        trial appends its event log to that list, which its record holds."""
        n, limit, kernel = self.n, self.limit, self.kernel
        delta, budget = float(self.params.delta), self.params.max_events
        logged = events is not None
        log = (ctypes.c_int8 * _LOG_EVENTS)() if logged else None
        step = _LOG_EVENTS if logged else MAX_INT64
        for rng in streams:
            t, lo, windows = Trial.from_buffer_copy(self.first), self.lo[:], self.windows[:]
            for w in windows:
                w.fill(self.a)
            trial, bits, e = ctypes.byref(t), rng.gen.bit_generator.ctypes.bit_generator, 0
            sites = self._sites(t, lo) if logged else None  # moved by _decode
            while e < budget and t.meetings < limit:
                self._grow(t, lo, windows)  # the walkers at a window's edge
                done = kernel(trial, bits, min(budget - e, step), n, delta, limit, log)
                if logged:
                    _decode(events, e, sites, log[:done])
                e += done
            yield TrajectoryRecord(t.meetings, e, self._sites(t, lo), events if logged else ())

    def _sites(self, t: Trial, lo: list) -> list:
        """The walkers' sites."""
        return [self.params.l0 + v + x for v, x in zip(lo, t.at)]

    def _grow(self, t: Trial, lo: list, windows: list) -> None:
        """Double the window of each walker that stands at its edge, on that side."""
        for i in range(self.n):
            if t.at[i] < 1:
                self._cover(t, lo, windows, i, lo[i] - t.width[i], lo[i])
            elif t.at[i] >= t.width[i]:
                self._cover(t, lo, windows, i, lo[i], lo[i] + 2 * t.width[i])

    def _cover(self, t: Trial, lo: list, windows: list, i: int, new_lo: int, new_hi: int):
        """Widen walker ``i``'s window to the edges [new_lo, new_hi) too
        (sites less l0), and to the other walker's window if the two would
        then touch.  ``lo[i]`` is the site of the first edge of ``windows[i]``.
        A walker stays on the sites of its window's edges, so walkers in
        windows that do not touch cannot meet."""
        new_lo, new_hi = min(new_lo, lo[i]), max(new_hi, lo[i] + len(windows[i]))
        share = [j for j in range(self.n) if windows[j] is windows[i]
                 or new_lo <= lo[j] + len(windows[j]) and lo[j] <= new_hi]
        new_lo = min([new_lo] + [lo[j] for j in share])
        new_hi = max([new_hi] + [lo[j] + len(windows[j]) for j in share])
        w = np.full(new_hi - new_lo, self.a)
        for j in share:
            w[lo[j] - new_lo:][:len(windows[j])] = windows[j]
        for j in share:
            t.at[j] += lo[j] - new_lo
            lo[j], windows[j] = new_lo, w
            t.w[j], t.width[j] = w.ctypes.data, len(w)


def _decode(events: list, e: int, sites: list, codes: list) -> None:
    """Append the events after event ``e`` to ``events`` as (event, walker,
    from, to), from their log codes (2 x walker, plus 1 for a right jump),
    moving the walkers' ``sites`` from before the events to after them."""
    for code in codes:
        i, e = code >> 1, e + 1
        v = sites[i]
        sites[i] = v + 2 * (code & 1) - 1
        events.append((e, i, v, sites[i]))


def meeting_statistics(counts: list[int]) -> list[tuple[range, float, float]]:
    """P(N >= k), with its standard error, for k = 1 up to the largest of
    the trials' meeting counts N, as CSV rows ``(ks, frequency, stderr)``:
    one per run of consecutive k that the same trials reach, ``ks`` a
    ``range`` and the two Python floats its k share.  A run ends at each
    distinct positive count, so n trials give at most n rows."""
    if not counts:
        raise ValueError("no meeting counts given")
    n = len(counts)
    # hits[k-1] = trials with >= k meetings; it is at least 1 at the largest
    # k, so each run of equal hits ends where the next value differs
    hits = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
    ends = np.flatnonzero(np.diff(hits, append=0))
    rows, first = [], 1
    for last, h in zip((ends + 1).tolist(), hits[ends].tolist()):
        f = h / n
        rows.append((range(first, last + 1), f, (f * (1 - f) / n) ** 0.5))
        first = last + 1
    return rows
