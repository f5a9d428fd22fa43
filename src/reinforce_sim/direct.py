"""Ground-truth weight dynamics: one or two linearly reinforced walks on Z
that share their edge weights.

Each particle carries an independent rate-1 exponential clock, so the
embedded jump chain picks the next mover uniformly among the particles.
Continuous timestamps are optional decoration, Exp(n) holding times
from a stream of their own; every statement here is about the jump chain.
Trials run in C, which owns the walkers' weight windows: a range of them
per call of ``direct_trials`` (see :mod:`~reinforce_sim.native`), each on
the stream (seed, t) that the call keys and reported as an int64 row, or
one on a given stream's bit generator, with its event log.
"""
from __future__ import annotations

import ctypes
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RngStream
from .native import MAX_INT64, kernels


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


class TrajectoryRecord(NamedTuple):
    """What one trial run by :func:`run_direct` produced: its meeting count,
    the events it ran, the walkers' final sites and its event log.

    ``meetings`` counts the events after which all walkers coincide, plus
    one when they start coincident.  The k-th meeting time is
    ``events_executed`` of the same run under ``stop_after_meetings=k``,
    when that run has ``meetings == k``.  ``events`` holds (event index,
    walker, from, to)."""

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
    rows, codes = _trials(params, n_particles, stop_after_meetings, 1,
                          rng=rng.gen.bit_generator.ctypes.bit_generator)
    sites, events = [params.l0, params.r0][:n_particles], []
    for e, code in enumerate(codes, 1):  # code: 2 x walker, plus 1 for a right jump
        i, v = code >> 1, sites[code >> 1]
        sites[i] = v + 2 * (code & 1) - 1
        events.append((e, i, v, sites[i]))
    return TrajectoryRecord(int(rows[0, 0]), len(events), sites, events)


def run_direct_batch(
    params: ModelParams,
    seed: int,
    trials: range,
    stop_after_meetings: int | None = None,
) -> Iterator[np.ndarray]:
    """Yield the rows (see :func:`_trials`) of the trials t of the range
    ``trials`` as int64 arrays, one per kernel call of ``_BLOCK`` trials or
    fewer, so memory does not grow with the trials.  Trial t's row is that
    of ``run_direct(params, 2, RngStream(seed, t), ...)``, bit for bit."""
    if trials.step != 1:
        raise ValueError(f"trials must be a range of step 1, got {trials!r}")
    key = RngStream(seed, 0).key
    for t in range(trials.start, trials.stop, _BLOCK):
        yield _trials(params, 2, stop_after_meetings, min(_BLOCK, trials.stop - t), t, key)[0]


# A walker's first window holds the edges within this many sites of its
# start, and two walkers whose windows would touch share one.  A window
# that its walker would leave doubles on that side, so a trial holds weight
# cells in proportion to the sites its walkers visit, never to their gap.
_FIRST_REACH = 32
# Trials run_direct_batch runs per kernel call.
_BLOCK = 1 << 10


def _trials(params: ModelParams, n: int, stop: int | None, count: int, t0: int = 0,
            key: Sequence[int] = (0, 0), rng: int | None = None) -> tuple[np.ndarray, bytes]:
    """The int64 rows ``direct_trials`` of ``kernels.c`` writes, one per trial:
    its meetings, events run, walkers' offsets from their starts and windows'
    widths; and, for a trial on the bit generator at ``rng``, its log codes."""
    rows, log, library = np.empty((count, 6), np.int64), ctypes.c_void_p(), kernels()
    # the first meeting ends a run with any limit <= 1; a budget past int64
    # runs as 2**63 - 1 events, which no trial reaches; no window grows
    # across a gap of 2**62, and walkers' offsets from it still fit in int64
    limit = MAX_INT64 if stop is None else min(max(stop, 1), MAX_INT64)
    try:
        if library.direct_trials(*key, t0 % 2**64, count, rng, n, float(params.a),
                                   float(params.delta), min(params.r0 - params.l0, 2**62),
                                   _FIRST_REACH, min(params.max_events, MAX_INT64), limit,
                                   None if rng is None else ctypes.byref(log), rows.ctypes.data):
            raise MemoryError("direct: no memory for a trial's weight windows or log")
        return rows, ctypes.string_at(log, int(rows[0, 1])) if log else b""
    finally:
        library.free(log)


def meeting_statistics(hist: np.ndarray) -> list[tuple[range, float, float]]:
    """P(N >= k), with its standard error, for k = 1 up to the largest
    meeting count N of the trials, ``hist[k]`` of them with N = k, as CSV
    rows ``(ks, frequency, stderr)``: one per run of consecutive k that the
    same trials reach, ``ks`` a ``range`` and the two Python floats its k
    share.  A run ends at each distinct positive N: n trials, n rows or fewer."""
    n = int(hist.sum())
    if n == 0:
        raise ValueError("no trials counted")
    # hits[k-1] = trials with >= k meetings; each run of equal hits ends
    # where the next value differs, and the k that no trial reaches, where
    # hits is 0, end no run
    hits = np.cumsum(hist[::-1])[::-1][1:]
    ends = np.flatnonzero(np.diff(hits, append=0))
    rows, first = [], 1
    for last, h in zip((ends + 1).tolist(), hits[ends].tolist()):
        f = h / n
        rows.append((range(first, last + 1), f, (f * (1 - f) / n) ** 0.5))
        first = last + 1
    return rows
