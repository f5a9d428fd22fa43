"""Ground-truth weight dynamics: n-particle linearly reinforced walks on Z.

Each particle carries an independent rate-1 exponential clock, so the
embedded jump chain picks the next mover uniformly among the particles.
Continuous timestamps are optional decoration, Exp(n) holding times
from a stream of their own; every statement here is about the jump chain.
"""
from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .distributions import RngStream


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
        times drawn from ``clock`` up to the event, or is null."""
        times = [None] * len(self.events)
        if clock is not None:
            holds = clock.gen.exponential(1.0 / self.n_particles, size=len(self.events))
            times = np.cumsum(holds).tolist()
        lines = []
        for (e, p, frm, to), t in zip(self.events, times):
            lines.append(json.dumps({"e": e, "t": t, "p": p, "from": frm, "to": to}))
        return "\n".join(lines) + ("\n" if lines else "")


def direct_step(
    weights: WeightMap, positions: list[int], params: ModelParams, rng: RngStream
) -> tuple[int, int, int]:
    """Execute one jump: uniform mover, weight-proportional direction.

    Mutates ``weights`` and ``positions``; returns (particle, from, to).
    """
    n = len(positions)
    i = int(rng.uniform() * n)  # < n: fl((1 - 2**-53) * n) < n below n = 2**53
    v = positions[i]
    if rng.uniform() < right_jump_probability(weights, v, params.delta):
        to = v + 1
        weights.reinforce(v)
    else:
        to = v - 1
        weights.reinforce(v - 1)
    positions[i] = to
    return i, v, to


def _start_positions(
    params: ModelParams, n_particles: int, positions: list[int] | None
) -> list[int]:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if positions is None:
        if n_particles > 2:
            raise ValueError("for n_particles > 2, pass explicit start positions")
        positions = [params.l0, params.r0][:n_particles]
    if len(positions) != n_particles:
        raise ValueError("positions length must equal n_particles")
    return list(positions)


def run_direct(
    params: ModelParams,
    n_particles: int,
    rng: RngStream,
    positions: list[int] | None = None,
    record_events: bool = True,
    stop_after_meetings: int | None = None,
) -> TrajectoryRecord:
    """Run up to ``params.max_events`` jumps and count meetings.

    ``stop_after_meetings=k`` ends the run once the k-th meeting is seen,
    which keeps hitting-time experiments cheap.
    """
    positions = _start_positions(params, n_particles, positions)
    record = TrajectoryRecord(params=params, n_particles=n_particles)
    weights = WeightMap(params.a)

    if n_particles > 1 and len(set(positions)) == 1:
        record.meetings = 1
        if stop_after_meetings is not None and record.meetings >= stop_after_meetings:
            record.final_positions = positions
            return record

    for e in range(1, params.max_events + 1):
        i, frm, to = direct_step(weights, positions, params, rng)
        if record_events:
            record.events.append((e, i, frm, to))
        record.events_executed = e
        if n_particles > 1 and min(positions) == max(positions):
            record.meetings += 1
            if stop_after_meetings is not None and record.meetings >= stop_after_meetings:
                break
    record.final_positions = positions
    return record


# Uniforms read from each trial's stream per chunk of the batch engine, and
# trials a lockstep group starts with: its draw arrays stay O(block x chunk)
# whatever the event budget.
_CHUNK_UNIFORMS = 1024
_BLOCK_TRIALS = 1024
# Edge weights a group of several trials may hold (32 MB of float64).  A
# group whose window would outgrow this splits in half and runs the halves
# one after the other.  Each of the at most log2(block) halvings parks half
# this many, so a block holds O(this x log2(block)) weights whatever the
# budget.  A single trial's window grows freely: one float per edge it spans.
_WINDOW_CELLS = 1 << 22
# A lockstep step costs about as much as five scalar events (2-vCPU VM), so
# runs of fewer trials than this use the scalar engine.
_MIN_LOCKSTEP = 6


@dataclass
class _Lockstep:
    """Trials stepped together: slot j runs ``records[j]`` on ``streams[j]``."""

    records: list
    streams: list
    pos: np.ndarray  # pos[j, i] is the site of walker i in slot j
    counts: np.ndarray  # meetings counted per slot
    weights: np.ndarray  # weights[j, v - offset] of edge [v, v+1]; untouched edges weigh a
    offset: int
    events: int  # events every slot has executed

    def take(self, slots: np.ndarray) -> "_Lockstep":
        """A new group of the given slots, with copies of their state."""
        keep = slots.tolist()
        return _Lockstep(
            [self.records[j] for j in keep], [self.streams[j] for j in keep],
            self.pos[slots], self.counts[slots], self.weights[slots], self.offset, self.events,
        )


def run_direct_batch(
    params: ModelParams,
    n_particles: int,
    streams: Iterable[RngStream],
    positions: list[int] | None = None,
    stop_after_meetings: int | None = None,
) -> list[TrajectoryRecord]:
    """Run one trial per stream in lockstep, without event logs.

    Returns the records ``run_direct(params, n_particles, s, positions,
    record_events=False, stop_after_meetings=...)`` would give for each
    stream ``s``, bit for bit.  A trial draws exactly two uniforms per
    event, so each chunk reads every trial's next uniforms in scalar
    order.  ``streams``, any iterable of distinct streams, is read one
    block of ``_BLOCK_TRIALS`` at a time, as the block starts, so a
    generator of streams keeps at most two blocks of them alive.
    A trial that reaches its meeting limit draws no uniforms after the
    chunk in which it retires, so its stream may end advanced past its
    last event by at most one chunk.
    """
    start = _start_positions(params, n_particles, positions)
    streams = iter(streams)
    block = list(islice(streams, _BLOCK_TRIALS))
    if len(block) < _MIN_LOCKSTEP or max(start) - min(start) > _WINDOW_CELLS:
        # (far-apart walkers would need a dense window spanning the gap)
        return [run_direct(params, n_particles, s, start, record_events=False,
                           stop_after_meetings=stop_after_meetings) for s in chain(block, streams)]
    coincident = n_particles > 1 and len(set(start)) == 1
    if coincident and stop_after_meetings is not None and stop_after_meetings <= 1:
        return [TrajectoryRecord(params=params, n_particles=n_particles, meetings=1,
                                 final_positions=list(start)) for _ in chain(block, streams)]
    # the first meeting inside the run always ends a run with a limit <= 1
    limit = None if stop_after_meetings is None else max(stop_after_meetings, 1)
    records = []
    while block:
        block_records = [TrajectoryRecord(params=params, n_particles=n_particles)
                         for _ in block]
        records += block_records
        groups = [_Lockstep(
            block_records, block, np.tile(np.asarray(start, dtype=np.int64), (len(block), 1)),
            np.full(len(block), int(coincident)), np.empty((len(block), 0)), min(start), 0,
        )]
        while groups:  # depth first, so split halves run before the next block
            groups.extend(reversed(_advance(groups.pop(), params, limit)))
        block = list(islice(streams, _BLOCK_TRIALS))
    return records


def _advance(g: _Lockstep, params: ModelParams, limit: int | None) -> list[_Lockstep]:
    """Step group ``g`` until its trials end.

    Returns ``[]`` once they have, or the two halves still to run when its
    weight window would outgrow ``_WINDOW_CELLS``.  A trial that reaches
    its meeting limit leaves the group at the end of that chunk.
    """
    n = g.pos.shape[1]
    delta = params.delta
    while g.events < params.max_events and g.records:
        steps = min(max(_CHUNK_UNIFORMS // 2, 1), params.max_events - g.events)
        # a walker moves at most `steps` sites per chunk and touches the
        # edges on both sides of it
        lo, hi = int(g.pos.min()) - steps - 1, int(g.pos.max()) + steps
        slots, width = len(g.records), g.weights.shape[1]
        if lo < g.offset or hi >= g.offset + width:
            # grow by at least the old width on each side a walker may
            # leave, so copying costs O(1) amortised per site
            pad = max(width, steps)
            new_lo = lo - pad if lo < g.offset else g.offset
            new_hi = hi + 1 + pad if hi >= g.offset + width else g.offset + width
            if slots > 1 and slots * (new_hi - new_lo) > _WINDOW_CELLS:
                return [g.take(half) for half in np.array_split(np.arange(slots), 2)]
            grown = np.full((slots, new_hi - new_lo), float(params.a))
            grown[:, g.offset - new_lo:g.offset - new_lo + width] = g.weights
            g.offset, g.weights = new_lo, grown
            width = grown.shape[1]
        flat_w = g.weights.reshape(-1)
        pos = g.pos.reshape(-1)  # walker i of slot j sits at pos[j * n + i]
        row = np.arange(slots) * width - g.offset  # flat index of edge [v, v+1], minus v

        u = np.empty((slots, 2 * steps))
        for j, stream in enumerate(g.streams):
            u[j] = stream.uniforms(2 * steps)
        mover = (u[:, 0::2] * n).astype(np.int64)
        mover_idx = np.ascontiguousarray((mover + (np.arange(slots) * n)[:, None]).T)
        u_dir = np.ascontiguousarray(u[:, 1::2].T)
        landed = np.empty((steps, slots), dtype=np.int64)
        met = np.zeros((steps, slots), dtype=bool)
        left_walker, right_walker = pos[0::n], pos[n - 1::n]
        for s in range(steps):
            i = mover_idx[s]
            wr_i = row + pos.take(i)
            edge = wr_i - 1
            wl = flat_w.take(edge)
            wr = flat_w.take(wr_i)
            right = u_dir[s] < (wr + delta) / (wl + wr + delta)
            edge += right  # the traversed edge
            flat_w[edge] += 1.0
            new = landed[s]
            np.subtract(edge, row, out=new)
            new += right
            pos.put(i, new)
            if n == 2:
                np.equal(left_walker, right_walker, out=met[s])
            elif n > 2:
                np.equal(g.pos.min(axis=1), g.pos.max(axis=1), out=met[s])

        if limit is not None:  # a trial retiring in this chunk steps on, uncounted
            met &= g.counts + np.cumsum(met, axis=0) <= limit
        g.counts += met.sum(axis=0)
        if limit is not None:
            done = g.counts >= limit
            last_step = steps - 1 - np.argmax(met[::-1, done], axis=0)
            for j, s in zip(np.flatnonzero(done).tolist(), last_step.tolist()):
                rec = g.records[j]
                rec.meetings = limit
                rec.events_executed = g.events + 1 + s
                rec.final_positions = [int(landed[s, j])] * n  # all walkers met there
            if done.any():
                g = g.take(np.flatnonzero(~done))
        g.events += steps

    for rec, final, meetings in zip(g.records, g.pos.tolist(), g.counts.tolist()):
        rec.meetings = meetings
        rec.events_executed = g.events
        rec.final_positions = final
    return []


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
