"""Ground-truth weight dynamics: one or two linearly reinforced walks on Z
that share their edge weights.

Each particle carries an independent rate-1 exponential clock, so the
embedded jump chain picks the next mover uniformly among the particles.
Continuous timestamps are optional decoration, Exp(n) holding times
from a stream of their own; every statement here is about the jump chain.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import distributions
from .distributions import RngStream, uniform_chunks


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


class WeightMap:
    """Sparse edge weights, keyed by the left endpoint of edge [v, v+1].

    Untouched edges have weight ``a``; each traversal adds exactly 1.
    """

    __slots__ = ("a", "_w")

    def __init__(self, a):
        self.a = a
        self._w = {}

    def weight(self, v: int):
        return self._w.get(v, self.a)

    def reinforce(self, v: int) -> None:
        self._w[v] = self._w.get(v, self.a) + 1


def right_jump_probability(weights: WeightMap, v: int, delta):
    """P(jump v -> v+1) = (W[v,v+1] + delta) / (W[v-1,v] + W[v,v+1] + delta)."""
    wl = weights.weight(v - 1)
    wr = weights.weight(v)
    return (wr + delta) / (wl + wr + delta)


@dataclass
class TrajectoryRecord:
    """Event log of one run plus the meeting count of the tracked particles.

    ``events`` holds (event index, particle id, from, to); ``meetings``
    counts the events after which all particles coincide, plus one when
    they start coincident.  The k-th meeting time is ``events_executed``
    of the same run under ``stop_after_meetings=k``, when that run has
    ``meetings == k``.
    """

    params: ModelParams
    n_particles: int
    events: list = field(default_factory=list)
    meetings: int = 0
    final_positions: list = field(default_factory=list)
    events_executed: int = 0

    def to_jsonl(self, clock: RngStream | None = None) -> str:
        """One JSON line per event; its time "t" sums the Exp(n) holding
        times drawn from ``clock`` up to the event, or is null.  The lines
        are ``json.dumps`` of each event's dict, byte for byte: ints print
        alike, and a finite float's ``repr`` is its JSON text."""
        times = ["null"] * len(self.events)
        if clock is not None:
            holds = clock.gen.exponential(1.0 / self.n_particles, size=len(self.events))
            times = map(repr, np.cumsum(holds).tolist())
        return "".join(f'{{"e": {e}, "t": {t}, "p": {p}, "from": {frm}, "to": {to}}}\n'
                       for (e, p, frm, to), t in zip(self.events, times))


def run_direct(
    params: ModelParams,
    n_particles: int,
    rng: RngStream,
    record_events: bool = True,
    stop_after_meetings: int | None = None,
) -> TrajectoryRecord:
    """Run up to ``params.max_events`` jumps of one walker from ``l0``, or
    of two from ``l0`` and ``r0``, and count meetings.

    Event e reads the uniform pair (u, u') at 2e - 2 of ``rng``, in chunks
    (:func:`uniform_chunks`): walker ``int(u * n)`` moves, to the right when
    u' < (W[v,v+1] + delta) / (W[v-1,v] + W[v,v+1] + delta), and the edge it
    crosses gains 1.  ``stop_after_meetings=k`` ends the run once the k-th
    meeting is seen, which keeps hitting-time experiments cheap.
    """
    if n_particles not in (1, 2):
        raise ValueError(f"n_particles must be 1 or 2, got {n_particles!r}")
    pos = [params.l0, params.r0][:n_particles]
    # the first meeting ends a run with any limit <= 1
    limit = float("inf") if stop_after_meetings is None else max(stop_after_meetings, 1)
    return _finish(TrajectoryRecord(params=params, n_particles=n_particles),
                   uniform_chunks(rng, params.max_events), pos,
                   int(n_particles == 2 and pos[0] == pos[1]), 0, {}, limit, record_events)


def _finish(record: TrajectoryRecord, chunks: Iterator[np.ndarray], pos: list, meetings: int,
            e: int, w: dict, limit: float, record_events: bool = False) -> TrajectoryRecord:
    """Fill in ``record``, running its trial on from event ``e`` (walkers at
    ``pos``, ``meetings`` met, ``w[v]`` the weight of edge [v, v+1] if not
    ``a``) to ``limit`` meetings or the budget, continuing ``chunks``, the
    trial's :func:`uniform_chunks` iterator, which was read up to event e."""
    a, delta, n = record.params.a, record.params.delta, len(pos)
    events = record.events
    if meetings < limit:
        pairs = chain.from_iterable(u.tolist() for u in chunks)  # reads a chunk as it needs it
        for u_mover, u_dir in zip(pairs, pairs):
            e += 1
            i = int(u_mover * n)  # < n: fl((1 - 2**-53) * n) < n
            v = pos[i]
            wl = w.get(v - 1, a)
            wr = w.get(v, a)
            if u_dir < (wr + delta) / (wl + wr + delta):
                w[v] = wr + 1
                pos[i] = v + 1
            else:
                w[v - 1] = wl + 1
                pos[i] = v - 1
            if record_events:
                events.append((e, i, v, pos[i]))
            if n == 2 and pos[0] == pos[1]:
                meetings += 1
                if meetings >= limit:
                    break
    record.meetings, record.events_executed, record.final_positions = meetings, e, pos
    return record


# Trials a lockstep group starts with, one chunk iterator each: a chunk's
# draw array holds at most block x 2 x distributions._MAX_CHUNK uniforms
# whatever the event budget.
_BLOCK_TRIALS = 1024
# Edge weights a group of several trials may hold (32 MB of float64).  A
# group whose window would outgrow this runs its two halves in turn, each
# from a copy of its state, and drops its own window; a lone trial finishes
# on the scalar loop.  Each of the at most log2(block) halvings parks half
# this many, so a block holds O(this x log2(block)) weights whatever the
# budget.
_WINDOW_CELLS = 1 << 22
# A group steps in lockstep while at least this many of its trials are live
# (below their meeting limit); at any chunk boundary with fewer, the rest
# finish on the scalar loop.  At a = 1, gap 2 and 10**4 events a scalar
# event costs 0.76-0.85 us, and a lockstep trial-event 0.74-0.92 us at 16
# trials, 0.61-0.67 at 20, 0.52-0.56 at 24, 0.40-0.42 at 32 and 0.34-0.37
# at 40 (2-vCPU VM, three rounds of three); a lockstep step of one or two
# live trials costs 5-10 us, plus the chunk's fixed cost.  No output
# depends on this value, only the time taken.
_MIN_LOCKSTEP = 20


@dataclass
class _Lockstep:
    """Trials stepped together: slot j runs ``records[j]`` on its chunk iterator ``chunks[j]``."""

    records: list
    chunks: list
    # sites count from l0: pos[j, i] is the site of walker i in slot j, less
    # l0, and weights[j, v - offset] the weight of edge [l0 + v, l0 + v + 1]
    pos: np.ndarray
    counts: np.ndarray  # meetings counted per slot
    weights: np.ndarray  # untouched edges weigh a
    offset: int
    events: int  # events every slot has executed

    def take(self, slots: np.ndarray) -> "_Lockstep":
        """A new group of the given slots, with copies of their state."""
        keep = slots.tolist()
        return _Lockstep(
            [self.records[j] for j in keep], [self.chunks[j] for j in keep],
            self.pos[slots], self.counts[slots], self.weights[slots], self.offset, self.events,
        )


def run_direct_batch(
    params: ModelParams,
    streams: Iterable[RngStream],
    stop_after_meetings: int | None = None,
) -> list[TrajectoryRecord]:
    """Run one two-walker trial per stream, without event logs.

    Returns the records ``run_direct(params, 2, s, record_events=False,
    stop_after_meetings=...)`` would give for each stream ``s``, bit for
    bit.  ``streams``, any iterable of distinct streams, is read one block
    of ``_BLOCK_TRIALS`` at a time, as the block starts, so a generator
    keeps at most two blocks of them alive.  A trial is its record and one
    :func:`uniform_chunks` iterator over its stream, which lockstep reads
    and ``run_direct``'s loop continues: a trial draws up to the end of the
    schedule chunk that holds its last event, whichever engine ran it.
    """
    l0, r0 = params.l0, params.r0
    # the first meeting inside the run always ends a run with a limit <= 1
    limit = float("inf") if stop_after_meetings is None else max(stop_after_meetings, 1)
    streams, records = iter(streams), []
    while chunks := [uniform_chunks(s, params.max_events) for s in islice(streams, _BLOCK_TRIALS)]:
        block = [TrajectoryRecord(params=params, n_particles=2) for _ in chunks]
        records += block
        # sites count from l0, as Python ints until a window spans them (then
        # they fit in int64), so any start and any gap fits
        _advance(_Lockstep(block, chunks, np.array([[0, r0 - l0]] * len(block), dtype=object),
                           np.full(len(block), int(l0 == r0)), np.empty((len(block), 0)), 0, 0),
                 params, limit)
    return records


def _advance(g: _Lockstep, params: ModelParams, limit: float) -> None:
    """Run group ``g`` to its end: in lockstep while ``_MIN_LOCKSTEP`` of its
    trials are live (a trial leaves at the end of the chunk in which it
    meets its limit), then each one left on ``_finish``.  A window that would
    outgrow ``_WINDOW_CELLS`` runs its halves in turn, or a lone trial on ``_finish``."""
    a, delta, l0 = params.a, params.delta, params.l0
    while g.events < params.max_events and np.count_nonzero(g.counts < limit) >= _MIN_LOCKSTEP:
        # a walker moves at most one site per event, at most the schedule's
        # largest chunk of events per chunk, and touches the edges on both
        # sides of it
        reach = min(distributions._MAX_CHUNK, params.max_events - g.events)
        lo, hi = int(g.pos.min()) - reach - 1, int(g.pos.max()) + reach
        slots, width = g.weights.shape
        if lo < g.offset or hi >= g.offset + width:
            # grow by at least the old width on each side a walker may
            # leave, so copying costs O(1) amortised per site
            pad = max(width, reach)
            new_lo = lo - pad if lo < g.offset else g.offset
            new_hi = hi + 1 + pad if hi >= g.offset + width else g.offset + width
            if slots * (new_hi - new_lo) > _WINDOW_CELLS:
                if slots == 1:  # a lone trial finishes on the scalar loop
                    break
                halves = [g.take(half) for half in np.array_split(np.arange(slots), 2)]
                g.weights = np.empty((slots, 0))  # the halves hold copies of what they need
                while halves:  # popped, so a half that has run holds no window
                    _advance(halves.pop(), params, limit)
                return
            g.weights = np.pad(g.weights, [(0, 0), (g.offset - new_lo, new_hi - g.offset - width)],
                               constant_values=a)
            g.offset, g.pos = new_lo, g.pos.astype(np.int64)
        # the chunk's arrays live in _step's frame, so none stay parked here
        # while the halves of this group run
        landed, met = _step(g, np.array([next(chunk) for chunk in g.chunks]), delta)
        before, g.counts = g.counts, g.counts + met.sum(axis=0)
        done = g.counts >= limit
        if done.any():  # a trial retires at its limit-th meeting, though it stepped on
            last_step = np.argmax(before[done] + np.cumsum(met[:, done], axis=0) >= limit, axis=0)
            for j, s in zip(np.flatnonzero(done).tolist(), last_step.tolist()):
                _finish(g.records[j], g.chunks[j], [l0 + int(landed[s, j])] * 2,  # where they met
                        limit, g.events + 1 + s, {}, limit)
            g = g.take(np.flatnonzero(~done))
        g.events += len(met)

    # the scalar loop runs on from the chunk boundary reached, with the
    # weights of the edges touched (one of weight a may go missing); a
    # spent budget needs no weights
    spent = g.events == params.max_events
    for j, (sites, meetings) in enumerate(zip(g.pos.tolist(), g.counts.tolist())):
        w = {} if spent else {l0 + g.offset + k: x
                              for k, x in enumerate(g.weights[j].tolist()) if x != a}
        _finish(g.records[j], g.chunks[j], [l0 + v for v in sites], meetings, g.events, w, limit)


def _step(g: _Lockstep, u: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Run chunk ``u`` (row j: slot j's next uniforms) on every slot of ``g``;
    per event and slot, return the mover's new site less l0, and if the walkers met.
    A walker is the flat index of its right edge in the weight buffer, and
    each numpy call of the event loop takes array operands only (delta as a
    per-slot array): a Python scalar operand costs more per call."""
    slots, width = g.weights.shape
    flat_w = g.weights.reshape(-1)
    row = np.arange(slots) * width - g.offset  # flat index of edge [v, v+1], minus v
    at = (g.pos + row[:, None]).reshape(-1)  # walker i of slot j: right edge at[2 * j + i]
    steps = u.shape[1] // 2
    mover = (u[:, 0::2] * 2).astype(np.int64)
    mover_idx = np.ascontiguousarray((mover + (np.arange(slots) * 2)[:, None]).T)
    u_dir = np.ascontiguousarray(u[:, 1::2].T)
    d, one, one_w = np.full(slots, float(delta)), np.ones(slots, np.int64), np.ones(slots)
    landed = np.empty((steps, slots), dtype=np.int64)
    met = np.zeros((steps, slots), dtype=bool)
    left_walker, right_walker = at[0::2], at[1::2]
    for i, u_s, new, met_s in zip(mover_idx, u_dir, landed, met):
        wr_i = at.take(i)
        edge = wr_i - one
        wl = flat_w.take(edge)
        wr = flat_w.take(wr_i)
        # (wr + delta) / ((wl + wr) + delta), the oracle's order: another order
        # moves last bits that no test sees.  At delta = 0 the adds go, exactly,
        # as x + 0.0 == x for every weight
        right = u_s < (wr / (wl + wr) if delta == 0 else (wr + d) / ((wl + wr) + d))
        edge += right  # the traversed edge
        flat_w[edge] += one_w
        np.add(edge, right, out=new)  # the mover's new right edge
        at.put(i, new)
        np.equal(left_walker, right_walker, out=met_s)
    landed -= row
    np.subtract(at.reshape(slots, 2), row[:, None], out=g.pos)
    return landed, met


def meeting_statistics(records: list[TrajectoryRecord]) -> list[dict]:
    """CSV rows of P(N >= k), with its standard error, for k = 1 up to the
    largest meeting count N; rejects runs with mismatched parameters."""
    if not records:
        raise ValueError("no records given")
    ref = (records[0].params, records[0].n_particles)
    for rec in records:
        if (rec.params, rec.n_particles) != ref:
            raise ValueError("meeting_statistics requires records with identical parameters")
    n = len(records)
    counts = [r.meetings for r in records]
    # hits[k-1] = trials with >= k meetings
    hits = np.cumsum(np.bincount(counts)[::-1])[::-1][1:].tolist()
    freqs = [h / n for h in hits]
    return [{"k": k, "frequency": f, "stderr": (f * (1 - f) / n) ** 0.5}
            for k, f in enumerate(freqs, 1)]
