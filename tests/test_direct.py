"""Weight dynamics: single steps, runs, meetings, and the single-particle
urn equivalence."""
import dataclasses
import json
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from reinforce_sim import direct
from reinforce_sim.direct import (
    ModelParams,
    WeightMap,
    direct_step,
    meeting_statistics,
    right_jump_probability,
    run_direct,
    run_direct_batch,
)
from reinforce_sim.distributions import HOLDING_TIMES, RngStream

from oracles import LargestUniform


def added_weight(w: WeightMap, lo: int, hi: int):
    """Weight added by reinforcement to the edges [v, v+1], lo <= v < hi."""
    return sum(w.weight(v) - w.a for v in range(lo, hi))


class TestModelParams:
    def test_valid_params_accepted(self):
        p = ModelParams(a=1.0, delta=0.5, l0=0, r0=2)
        assert not p.outside_recurrence_regime

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.0, "delta": 0.0, "l0": 0, "r0": 1},
            {"a": -1.0, "delta": 0.0, "l0": 0, "r0": 1},
            {"a": 1.0, "delta": -0.1, "l0": 0, "r0": 1},
            {"a": 1.0, "delta": 0.0, "l0": 2, "r0": 1},
            {"a": 1.0, "delta": 0.0, "l0": 0, "r0": 1, "max_events": -1},
            {"a": float("nan"), "delta": 0.0, "l0": 0, "r0": 1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_regime_flag(self):
        assert ModelParams(a=1.0, delta=1.0, l0=0, r0=1).outside_recurrence_regime
        assert not ModelParams(a=1.0, delta=0.99, l0=0, r0=1).outside_recurrence_regime


class TestWeightMap:
    def test_untouched_edges_have_initial_weight(self):
        w = WeightMap(2.5)
        assert w.weight(-7) == 2.5
        assert w.weight(100) == 2.5

    def test_reinforce_adds_one(self):
        w = WeightMap(1.0)
        w.reinforce(3)
        w.reinforce(3)
        assert w.weight(3) == 3.0
        assert w.weight(2) == 1.0


class TestJumpProbability:
    def test_fresh_site_no_drift(self):
        assert right_jump_probability(WeightMap(1.0), 0, 0.0) == 0.5
        assert right_jump_probability(WeightMap(3.7), 5, 0.0) == 0.5

    def test_fresh_site_with_drift(self):
        # (1 + 1) / (1 + 1 + 1)
        assert right_jump_probability(WeightMap(1.0), 0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_reinforced_edge_attracts(self):
        w = WeightMap(1.0)
        w.reinforce(0)  # edge [0, 1] now weight 2
        assert right_jump_probability(w, 0, 0.0) == pytest.approx(2.0 / 3.0)
        assert right_jump_probability(w, 1, 0.0) == pytest.approx(1.0 / 3.0)


class TestDirectStep:
    def test_moves_one_particle_one_site(self):
        rng = RngStream(51, 0)
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=5)
        positions = [0, 5]
        w = WeightMap(params.a)
        i, frm, to = direct_step(w, positions, params, rng)
        assert abs(to - frm) == 1
        assert positions[i] == to
        assert w.weight(min(frm, to)) == 2.0  # the traversed edge
        assert added_weight(w, -1, 7) == 1

    def test_mover_is_uniform(self):
        rng = RngStream(52, 0)
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=100)
        n = 20_000
        moved_left = 0
        for _ in range(n):
            positions = [0, 100]
            i, _, _ = direct_step(WeightMap(params.a), positions, params, rng)
            moved_left += i == 0
        assert abs(moved_left / n - 0.5) < 4 * np.sqrt(0.25 / n)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_largest_uniform_moves_the_last_particle(self, n):
        positions = list(range(0, 3 * n, 3))
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=0)
        i, frm, to = direct_step(WeightMap(params.a), positions, params, LargestUniform())
        assert (i, frm, to) == (n - 1, 3 * n - 3, 3 * n - 4)

    def test_large_a_first_jump_is_symmetric(self):
        # a -> infinity: reinforcement negligible, first jump ~ fair coin
        rng = RngStream(53, 0)
        params = ModelParams(a=1e6, delta=0.0, l0=0, r0=0)
        n = 100_000
        rights = 0
        for _ in range(n):
            _, frm, to = direct_step(WeightMap(params.a), [0], params, rng)
            rights += to == frm + 1
        assert abs(rights / n - 0.5) < 0.005


class TestRunDirect:
    def test_zero_budget_executes_nothing(self):
        rec = run_direct(ModelParams(a=1.0, delta=0.0, l0=0, r0=2), 2, RngStream(54, 0))
        assert rec.events == []
        assert rec.events_executed == 0
        assert rec.final_positions == [0, 2]

    def test_coincident_start_records_meeting_zero(self):
        params = ModelParams(a=1.0, delta=0.0, l0=1, r0=1, max_events=10)
        assert run_direct(params, 2, RngStream(55, 0)).meetings >= 1
        first = run_direct(params, 2, RngStream(55, 0), stop_after_meetings=1)
        assert (first.meetings, first.events_executed, first.events) == (1, 0, [])

    def test_event_log_replays_consistently(self):
        # the first start never meets within the budget, the second does
        met = 0
        for delta, r0 in ((0.5, 3), (0.0, 1)):
            params = ModelParams(a=1.0, delta=delta, l0=0, r0=r0, max_events=500)
            rec = run_direct(params, 2, RngStream(56, 0))
            positions = [0, r0]
            meetings = []
            for e, p, frm, to in rec.events:
                assert positions[p] == frm
                assert abs(to - frm) == 1
                positions[p] = to
                if positions[0] == positions[1]:
                    meetings.append(e)
            assert positions == rec.final_positions
            assert len(meetings) == rec.meetings
            for k, e in enumerate(meetings, 1):  # the k-th meeting time
                kth = run_direct(params, 2, RngStream(56, 0), record_events=False,
                                 stop_after_meetings=k)
                assert (kth.meetings, kth.events_executed) == (k, e)
            met += len(meetings)
        assert met > 1

    def test_weight_sum_conservation(self):
        params = ModelParams(a=1.5, delta=0.25, l0=0, r0=2, max_events=300)
        rng = RngStream(57, 0)
        w = WeightMap(params.a)
        positions = [0, 2]
        for _ in range(300):
            direct_step(w, positions, params, rng)
        assert added_weight(w, -301, 303) == 300  # every edge 300 jumps can reach

    def test_timestamps_increase(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=4, max_events=200)
        rec = run_direct(params, 2, RngStream(58, 0))
        lines = rec.to_jsonl(RngStream(58, 0, HOLDING_TIMES)).splitlines()
        times = [json.loads(line)["t"] for line in lines]
        assert len(times) == 200 and times[0] > 0
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert all(json.loads(line)["t"] is None for line in rec.to_jsonl().splitlines())

    def test_stop_after_first_meeting(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=100_000)
        rec = run_direct(params, 2, RngStream(59, 0), record_events=False,
                         stop_after_meetings=1)
        assert rec.meetings == 1
        logged = run_direct(params, 2, RngStream(59, 0), stop_after_meetings=1)
        positions = [0, 2]
        for e, p, frm, to in logged.events:  # the walkers meet first at the last event
            positions[p] = to
            assert (positions[0] == positions[1]) == (e == rec.events_executed)
        assert logged.events[-1][0] == rec.events_executed

    def test_three_particles_supported(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=0, max_events=50)
        rec = run_direct(params, 3, RngStream(60, 0), positions=[0, 2, 4])
        assert len(rec.final_positions) == 3

    def test_position_length_mismatch_rejected(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        with pytest.raises(ValueError):
            run_direct(params, 2, RngStream(61, 0), positions=[0])

    def test_jsonl_schema(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=20)
        rec = run_direct(params, 2, RngStream(62, 0))
        lines = rec.to_jsonl().strip().split("\n")
        assert len(lines) == 20
        row = json.loads(lines[0])
        assert set(row) == {"e", "t", "p", "from", "to"}


def scalar_records(params, n, seed, trials, positions=None, stop=None):
    return [
        run_direct(params, n, RngStream(seed, t), positions, record_events=False,
                   stop_after_meetings=stop)
        for t in range(trials)
    ]


class CountingStream:
    """A stream that counts the uniforms drawn through ``uniforms``."""

    def __init__(self, stream: RngStream):
        self.stream, self.drawn = stream, 0

    def uniforms(self, n: int) -> np.ndarray:
        self.drawn += n
        return self.stream.uniforms(n)


def batch_records(params, n, seed, trials, positions=None, stop=None):
    streams = [RngStream(seed, t) for t in range(trials)]
    return run_direct_batch(params, n, streams, positions, stop_after_meetings=stop)


class TestRunDirectBatch:
    """The lockstep engine must reproduce the scalar records bit for bit."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("l0,r0", [(0, 0), (0, 1), (-2, 5)])
    @pytest.mark.parametrize("n,positions", [(1, None), (2, None), (3, "explicit")])
    def test_matches_scalar_on_grid(self, a, delta, l0, r0, n, positions):
        if positions == "explicit":
            positions = [l0, r0, l0 + 1]
        for budget in (1, 515):  # one chunk is 512 events
            params = ModelParams(a=a, delta=delta, l0=l0, r0=r0, max_events=budget)
            for stop in (None, 1, 2, 3):
                assert batch_records(params, n, 70, 8, positions, stop) == \
                    scalar_records(params, n, 70, 8, positions, stop)

    @pytest.mark.parametrize("stop", [None, 1, 3])
    def test_output_does_not_depend_on_chunk_or_block_size(self, monkeypatch, stop):
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=401)
        expected = scalar_records(params, 2, 71, 24, stop=stop)
        for chunk, block in ((2, 24), (7, 8), (64, 6)):
            monkeypatch.setattr(direct, "_CHUNK_UNIFORMS", chunk)
            monkeypatch.setattr(direct, "_BLOCK_TRIALS", block)
            assert batch_records(params, 2, 71, 24, stop=stop) == expected

    def test_largest_uniforms_move_the_last_walker(self):
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=40)
        streams = [LargestUniform() for _ in range(direct._MIN_LOCKSTEP)]
        recs = run_direct_batch(params, 2, streams)
        assert recs[0].final_positions == [0, -37]
        assert recs == [run_direct(params, 2, s, record_events=False) for s in streams]

    def test_window_growth(self, monkeypatch):
        # one-event chunks leave one site of slack, so every excursion past
        # the start grows the weight window
        monkeypatch.setattr(direct, "_CHUNK_UNIFORMS", 2)
        monkeypatch.setattr(direct, "_MIN_LOCKSTEP", 1)
        params = ModelParams(a=0.5, delta=0.9, l0=0, r0=0, max_events=3001)
        logged = [run_direct(params, 1, RngStream(72, t)) for t in range(3)]
        assert max(abs(to) for rec in logged for *_, to in rec.events) > 4
        expected = [dataclasses.replace(rec, events=[]) for rec in logged]
        assert batch_records(params, 1, 72, 3) == expected

    @pytest.mark.parametrize("stop", [None, 2])
    def test_drifting_walkers_split_groups_under_the_window_cap(self, monkeypatch, stop):
        # at delta >= 1 walkers drift almost linearly, so a 200-cell cap
        # splits the 16-trial group into halves, down to single trials
        monkeypatch.setattr(direct, "_CHUNK_UNIFORMS", 8)
        monkeypatch.setattr(direct, "_WINDOW_CELLS", 200)
        sizes = []
        advance = direct._advance

        def spy(g, params, limit):
            halves = advance(g, params, limit)
            sizes.append((len(g.records), g.weights.size))
            return halves

        monkeypatch.setattr(direct, "_advance", spy)
        params = ModelParams(a=1.0, delta=5.0, l0=0, r0=3, max_events=2003)
        expected = scalar_records(params, 2, 75, 16, stop=stop)
        assert batch_records(params, 2, 75, 16, stop=stop) == expected
        assert max(max(rec.final_positions) for rec in expected) > 200
        assert len(sizes) > 1  # one block, so every further group is a half
        if stop is None:  # without retirements the group spied on is the one grown
            assert any(slots == 1 for slots, _ in sizes)
            assert all(slots == 1 or cells <= 200 for slots, cells in sizes)

    def test_records_hold_one_meeting_count_each(self):
        # walkers started side by side meet thousands of times in 2e4
        # events; what the records keep must not grow with the meetings
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=1, max_events=20_000)
        streams = [RngStream(79, t) for t in range(64)]
        tracemalloc.start()
        try:
            records = run_direct_batch(params, 2, streams)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rec.meetings for rec in records) > 64 * 1000
        assert held < 1 << 20

    def test_far_apart_walkers_run_without_a_dense_window(self):
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=10**12, max_events=50)
        assert batch_records(params, 2, 76, 8) == scalar_records(params, 2, 76, 8)

    def test_retired_trials_are_compacted(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=1, max_events=3000)
        got = batch_records(params, 2, 73, 200, stop=1)
        assert got == scalar_records(params, 2, 73, 200, stop=1)
        assert sum(rec.events_executed < 512 for rec in got) > 100
        assert sum(rec.events_executed > 1024 for rec in got) > 0

    @pytest.mark.parametrize("stop", [1, 2])
    def test_retired_trials_read_no_further_uniforms(self, monkeypatch, stop):
        # eight-event chunks at gap 3: fewer than half the trials retire in
        # the first chunk, and each must stop drawing at the end of the
        # chunk in which it retires
        monkeypatch.setattr(direct, "_CHUNK_UNIFORMS", 16)
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=3, max_events=403)
        streams = [CountingStream(RngStream(78, t)) for t in range(64)]
        got = run_direct_batch(params, 2, streams, stop_after_meetings=stop)
        assert got == scalar_records(params, 2, 78, 64, stop=stop)
        retired = [rec.meetings == stop for rec in got]
        assert 0 < sum(done and rec.events_executed <= 8 for rec, done in zip(got, retired)) < 32
        assert sum(retired) < 64
        for rec, stream, done in zip(got, streams, retired):
            events = -(-rec.events_executed // 8) * 8 if done else params.max_events
            assert stream.drawn == 2 * min(events, params.max_events)

    @pytest.mark.parametrize("stop", [None, 1])
    def test_streams_are_read_one_block_at_a_time(self, monkeypatch, stop):
        monkeypatch.setattr(direct, "_BLOCK_TRIALS", 8)
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=101)
        alive, peak = set(), []

        def streams():
            for t in range(36):
                stream = RngStream(77, t)
                alive.add(t)
                weakref.finalize(stream, alive.discard, t)
                peak.append(len(alive))
                yield stream

        got = run_direct_batch(params, 2, streams(), stop_after_meetings=stop)
        assert got == scalar_records(params, 2, 77, 36, stop=stop)
        assert len(peak) == 36 and max(peak) <= 16  # the block running and the next

    def test_no_streams_no_records(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        assert run_direct_batch(params, 2, []) == []

    def test_positions_validated_like_scalar(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        with pytest.raises(ValueError):
            run_direct_batch(params, 3, [RngStream(74, 0)])
        with pytest.raises(ValueError):
            run_direct_batch(params, 2, [RngStream(74, 0)], positions=[0])


class TestSingleParticleUrnEquivalence:
    """A single reinforced walker admits its own per-site urn picture:
    site v holds a two-color urn whose red/blue masses start as the two
    adjacent edge weights seen on first arrival, with reinforcement 2.
    Exact enumeration at small horizons must match the weight dynamics."""

    @staticmethod
    def _enum_direct(a, delta, horizon):
        a, delta = Fraction(a), Fraction(delta)
        acc = {}

        def rec(weights, v, depth, prob, traj):
            if depth == horizon:
                acc[traj] = acc.get(traj, Fraction(0)) + prob
                return
            wl = weights.get(v - 1, a)
            wr = weights.get(v, a)
            p_right = (wr + delta) / (wl + wr + delta)
            if p_right > 0:
                w2 = dict(weights)
                w2[v] = wr + 1
                rec(w2, v + 1, depth + 1, prob * p_right, traj + (1,))
            if p_right < 1:
                w2 = dict(weights)
                w2[v - 1] = wl + 1
                rec(w2, v - 1, depth + 1, prob * (1 - p_right), traj + (0,))

        rec({}, 0, 0, Fraction(1), ())
        return acc

    @staticmethod
    def _enum_urn(a, delta, horizon):
        a, delta = Fraction(a), Fraction(delta)
        acc = {}

        def fresh(v):
            # masses mirror the adjacent edge weights on first arrival
            if v < 0:
                return (a, 1 + a + delta)
            if v == 0:
                return (a, a + delta)
            return (a + 1, a + delta)

        def rec(urns, v, depth, prob, traj):
            if depth == horizon:
                acc[traj] = acc.get(traj, Fraction(0)) + prob
                return
            red, blue = urns.get(v, fresh(v))
            total = red + blue
            if blue > 0:
                u2 = dict(urns)
                u2[v] = (red, blue + 2)
                rec(u2, v + 1, depth + 1, prob * blue / total, traj + (1,))
            if red > 0:
                u2 = dict(urns)
                u2[v] = (red + 2, blue)
                rec(u2, v - 1, depth + 1, prob * red / total, traj + (0,))

        rec({}, 0, 0, Fraction(1), ())
        return acc

    @pytest.mark.parametrize("a,delta", [(1, 0), (2, 0), (Fraction(1, 2), 0), (1, Fraction(1, 2))])
    def test_exact_agreement_horizon_three(self, a, delta):
        d1 = self._enum_direct(a, delta, 3)
        d2 = self._enum_urn(a, delta, 3)
        keys = set(d1) | set(d2)
        tv = sum(abs(d1.get(k, Fraction(0)) - d2.get(k, Fraction(0))) for k in keys) / 2
        assert tv == 0
        assert sum(d1.values()) == 1


class TestMeetingStatistics:
    def _records(self, n, seed):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=2000)
        return [
            run_direct(params, 2, RngStream(seed, t), record_events=False)
            for t in range(n)
        ]

    def test_frequencies_nonincreasing_in_k(self):
        freqs = [row["frequency"] for row in meeting_statistics(self._records(200, 63))]
        assert all(f1 >= f2 for f1, f2 in zip(freqs, freqs[1:]))
        assert all(0.0 <= f <= 1.0 for f in freqs)

    def test_rows_schema(self):
        rows = meeting_statistics(self._records(50, 64))
        assert rows[0]["k"] == 1
        assert set(rows[0]) == {"k", "frequency", "stderr"}

    def test_coincident_starts_give_frequency_one(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=0, max_events=10)
        recs = [run_direct(params, 2, RngStream(65, t)) for t in range(20)]
        assert meeting_statistics(recs)[0]["frequency"] == 1.0

    def test_mixed_parameters_rejected(self):
        p1 = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        p2 = ModelParams(a=2.0, delta=0.0, l0=0, r0=2, max_events=10)
        recs = [run_direct(p1, 2, RngStream(66, 0)), run_direct(p2, 2, RngStream(66, 1))]
        with pytest.raises(ValueError):
            meeting_statistics(recs)

    def test_matches_quadratic_reference(self):
        records = self._records(40, 67)
        rows = meeting_statistics(records)
        max_k = max(r.meetings for r in records)
        assert [row["k"] for row in rows] == list(range(1, max_k + 1))
        for k, row in enumerate(rows, 1):
            f = sum(r.meetings >= k for r in records) / len(records)
            assert row["frequency"] == f
            assert row["stderr"] == (f * (1 - f) / len(records)) ** 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            meeting_statistics([])
