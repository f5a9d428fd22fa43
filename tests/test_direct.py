"""Weight dynamics: single steps, runs, meetings, and the single-particle
urn equivalence."""
import json
import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reinforce_sim import direct
from reinforce_sim.direct import (
    ModelParams, TrajectoryRecord, meeting_statistics, run_direct, run_direct_batch,
)
from reinforce_sim.distributions import HOLDING_TIMES, RngStream

from oracles import (
    LargestUniform, ScriptedWords, WeightMap, direct_step, quadratic_meeting_rows,
    right_jump_probability, stepped_run_direct,
)


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
                kth = run_direct(params, 2, RngStream(56, 0), stop_after_meetings=k)
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
        rec = run_direct(params, 2, RngStream(59, 0), stop_after_meetings=1)
        assert rec.meetings == 1
        logged = run_direct(params, 2, RngStream(59, 0), stop_after_meetings=1)
        positions = [0, 2]
        for e, p, frm, to in logged.events:  # the walkers meet first at the last event
            positions[p] = to
            assert (positions[0] == positions[1]) == (e == rec.events_executed)
        assert logged.events[-1][0] == rec.events_executed

    @pytest.mark.parametrize("n", [0, -1])
    def test_one_or_two_particles_only(self, n):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        with pytest.raises(ValueError, match="1 or 2"):
            run_direct(params, n, RngStream(60, 0))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("l0,r0", [(0, 0), (0, 1), (-2, 5)])
    def test_matches_the_stepped_oracle(self, n, a, delta, l0, r0):
        # budgets within the first windows' reach and past it
        for budget in (1, 8, 9, 1100):
            params = ModelParams(a=a, delta=delta, l0=l0, r0=r0, max_events=budget)
            for stop in (None, 1, 3):
                assert run_direct(params, n, RngStream(61, budget), stop_after_meetings=stop) \
                    == stepped_run_direct(params, n, RngStream(61, budget), stop)

    @pytest.mark.parametrize("n", [1, 2])
    def test_largest_uniforms_match_the_stepped_oracle(self, n):
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=40)
        assert run_direct(params, n, LargestUniform()) == \
            stepped_run_direct(params, n, LargestUniform())

    @pytest.mark.parametrize("n", [1, 2])
    def test_mover_words_at_the_top_bit_match_the_stepped_oracle(self, n):
        # each event's first word is 0, 2**63 - 1, 2**63 or 2**64 - 1 in turn,
        # whose uniforms are 0, 1/2 - 2**-53, 1/2 and 1 - 2**-53; its second
        # is a word of a Philox stream
        movers = [0, 2**63 - 1, 2**63, 2**64 - 1] * 10
        steps = np.random.Philox(34).random_raw(len(movers)).tolist()
        words = [w for pair in zip(movers, steps) for w in pair]
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=len(movers))
        mine, theirs = ScriptedWords(words), ScriptedWords(words)
        got = run_direct(params, n, mine)
        assert got == stepped_run_direct(params, n, theirs)
        assert [i for _, i, _, _ in got.events] == [(w >> 63) * (n - 1) for w in movers]
        assert mine.read == theirs.read == len(words)

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_uniforms_beside_the_ratio_match_the_stepped_oracle(self, n):
        # A walker's first step goes right when u < x / y rounded, x = a +
        # delta and y = (a + a) + delta; the compiled loop decides most
        # steps by u * y < x instead.  The first step here draws each of
        # the nine uniforms k * 2**-53 nearest x / y, and the test finds
        # among them, in Python floats, some that the product alone would
        # send the wrong way; the other steps draw Philox words.
        steps = np.random.Philox(35).random_raw(30).tolist()
        wrong = []
        for a, delta in [(1.0, 0.0), (1.0, 0.5), (2.0, 0.1), (0.5, 2.0), (3.7, 0.3), (2.5, 0.7)]:
            x, y = a + delta, (a + a) + delta
            params = ModelParams(a=a, delta=delta, l0=0, r0=3, max_events=16)
            middle = int(x / y * 2**53)  # x / y <= 1, so the product is exact
            for k in range(middle - 4, middle + 5):
                u = k * 2.0**-53
                wrong += [(a, delta, k)] * ((u * y < x) != (u < x / y))
                for mover in [0, 2**63][:n]:
                    words = [mover, k << 11, *steps]
                    mine, theirs = ScriptedWords(words), ScriptedWords(words)
                    got = run_direct(params, n, mine)
                    assert got == stepped_run_direct(params, n, theirs)
                    _, _, start, to = got.events[0]
                    assert to - start == (1 if u < x / y else -1)
                    assert mine.read == theirs.read == len(words)
        assert wrong  # so a loop that decided by the product alone fails here

    def test_a_ratio_that_rounds_to_zero_sends_a_zero_uniform_left(self):
        # a is the least double: the walker steps left, then right, so
        # edge [-1, 0] weighs 2, then at 0 draws u = 0 against a / 2, which
        # rounds to 0; u < 0 is false, though u * y = 0 < a
        a = 5e-324
        params = ModelParams(a=a, delta=0.0, l0=0, r0=0, max_events=3)
        words = [0, 2**64 - 1, 0, 0, 0, 0]
        assert a / (2.0 + a) == 0.0 and 0.0 * (2.0 + a) < a
        got = run_direct(params, 1, ScriptedWords(words))
        assert got == stepped_run_direct(params, 1, ScriptedWords(words))
        assert [to for *_, to in got.events] == [-1, 0, -1]

    @given(st.integers(0, 2**64 - 1))
    @example(0).via("the smallest word")
    @example(2**63 - 1).via("the last word below one half")
    @example(2**63).via("the first word at one half")
    @example(2**64 - 1).via("the largest word")
    def test_a_words_top_bit_is_its_uniforms_two_way_pick(self, w):
        # numpy's Philox makes the uniform (w >> 11) * 2**-53 of a word w, so
        # the compiled loops read a two-way pick as the word's top bit
        u = (w >> 11) * 2**-53
        assert w >> 63 == int(u * 2) == int(u >= 0.5)

    def test_jsonl_schema(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=20)
        rec = run_direct(params, 2, RngStream(62, 0))
        lines = rec.to_jsonl().strip().split("\n")
        assert len(lines) == 20
        row = json.loads(lines[0])
        assert set(row) == {"e", "t", "p", "from", "to"}

    @pytest.mark.parametrize("n,l0", [(2, 0), (2, -10**22), (1, 10**22)])
    @pytest.mark.parametrize("timestamps", [False, True])
    def test_jsonl_lines_are_json_dumps(self, n, l0, timestamps):
        for budget in (0, 1, 3000):
            params = ModelParams(a=1.0, delta=0.5, l0=l0, r0=l0 + 2, max_events=budget)
            rec = run_direct(params, n, RngStream(63, budget))
            times = [None] * budget
            if timestamps:
                clock = RngStream(63, budget, HOLDING_TIMES)
                times = np.cumsum(clock.gen.exponential(1.0 / n, size=budget)).tolist()
            expected = "".join(json.dumps({"e": e, "t": t, "p": p, "from": frm, "to": to}) + "\n"
                               for (e, p, frm, to), t in zip(rec.events, times))
            clock = RngStream(63, budget, HOLDING_TIMES) if timestamps else None
            assert rec.to_jsonl(clock) == expected


def unlogged(rec):
    """``rec`` without its event log, as :func:`row_records` reads a batch row."""
    return rec._replace(events=())


def row_records(params, blocks):
    """The rows of ``run_direct_batch``'s blocks, each read as the unlogged
    record of its trial: ``TrajectoryRecord(meetings, events, [l0 + left,
    r0 + right])``."""
    return [TrajectoryRecord(meetings, events, [params.l0 + left, params.r0 + right])
            for block in blocks for meetings, events, left, right, _, _ in block.tolist()]


def scalar_records(params, seed, trials, stop=None):
    """``run_direct``'s records of two-walker trials, without their event logs."""
    return [unlogged(run_direct(params, 2, RngStream(seed, t), stop_after_meetings=stop))
            for t in range(trials)]


def stepped_records(params, seed, trials, stop=None):
    """The stepped oracle's records of two-walker trials, without their event logs."""
    return [unlogged(stepped_run_direct(params, 2, RngStream(seed, t), stop))
            for t in range(trials)]


def generator_state(rng: RngStream) -> tuple:
    """The state of ``rng``'s bit generator, as comparable values."""
    state = rng.gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


def drew_exactly(rng: RngStream, uniforms: int) -> bool:
    """Whether ``rng``'s generator stands where a fresh stream of its key
    stands after ``uniforms`` draws."""
    fresh = RngStream(rng.seed, rng.trial, rng.role)
    fresh.uniforms(uniforms)
    return generator_state(rng) == generator_state(fresh)


def window_widths(params, seed, trials, stop=None):
    """The widths of the two walkers' final windows in each of ``trials``
    two-walker trials, as the compiled trials report them; walkers that
    share a window report its width twice."""
    blocks = run_direct_batch(params, seed, range(trials), stop_after_meetings=stop)
    return np.concatenate(list(blocks))[:, 4:].tolist()


def batch_records(params, seed, trials, stop=None):
    """The records of ``trials`` two-walker trials, read from their batch rows."""
    return row_records(params, run_direct_batch(params, seed, range(trials),
                                                stop_after_meetings=stop))


class TestRunDirectBatch:
    """``run_direct_batch``'s rows, read as records, must equal
    ``run_direct``'s bit for bit: a trial's row does not depend on the
    trials run before it."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("l0,r0", [(0, 0), (0, 1), (-2, 5)])
    @pytest.mark.parametrize("n,positions", [(1, None), (2, None), (3, "explicit")])
    def test_matches_scalar_on_grid(self, a, delta, l0, r0, n, positions):
        """Two walkers: the batch records equal the scalar ones.  One walker,
        which only ``run_direct`` runs: its records equal the stepped
        oracle's.  Three walkers (``positions`` named their starts while
        the engines took them): ``run_direct`` rejects them."""
        for budget in (1, 515):
            params = ModelParams(a=a, delta=delta, l0=l0, r0=r0, max_events=budget)
            if n == 3:
                with pytest.raises(ValueError, match="1 or 2"):
                    run_direct(params, n, RngStream(70, 0))
            elif n == 1:  # a lone walker never meets, so no stop applies
                assert [run_direct(params, 1, RngStream(70, t)) for t in range(8)] == \
                    [stepped_run_direct(params, 1, RngStream(70, t)) for t in range(8)]
            else:
                for stop in (None, 1, 2, 3):
                    assert batch_records(params, 70, 8, stop) == \
                        scalar_records(params, 70, 8, stop)

    @pytest.mark.parametrize("a", [1.0, 2.0**60])  # at 2**60, a + 1 == a
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("stop", [1, 3, 1000])
    @pytest.mark.parametrize("trials", [40, 100, 1000])
    def test_matches_scalar_across_trial_counts_and_stops(self, a, delta, stop, trials):
        params = ModelParams(a=a, delta=delta, l0=0, r0=2, max_events=600)
        got = batch_records(params, 80, trials, stop)
        assert got == scalar_records(params, 80, trials, stop)
        assert got[:3] == stepped_records(params, 80, 3, stop)

    @pytest.mark.parametrize("seed,start", [(93, 2**63 - 2), (93, 2**64 - 2), (-93, 5),
                                            (2**64 + 93, 5)],
                             ids=["past-int64", "wrapping", "negative-seed", "seed-past-2**64"])
    def test_keys_each_trial_as_rng_stream_does(self, seed, start):
        # the kernel keys trial t from the seed's key words and counter word
        # t mod 2**64, as RngStream(seed, t) does
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=300)
        trials = range(start, start + 4)
        got = row_records(params, run_direct_batch(params, seed, trials, stop_after_meetings=2))
        assert got == [unlogged(run_direct(params, 2, RngStream(seed, t), stop_after_meetings=2))
                       for t in trials]
        assert len({tuple(rec.final_positions) for rec in got}) > 1

    def test_blocks_of_trials_give_the_records_of_one(self, monkeypatch):
        # kernel calls of three trials, one of them across the counter's wrap
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=200)
        trials = range(2**64 - 4, 2**64 + 6)
        whole = row_records(params, run_direct_batch(params, 94, trials, stop_after_meetings=3))
        monkeypatch.setattr(direct, "_BLOCK", 3)
        blocks = list(run_direct_batch(params, 94, trials, stop_after_meetings=3))
        assert [len(block) for block in blocks] == [3, 3, 3, 1]
        assert row_records(params, blocks) == whole
        assert whole == [unlogged(run_direct(params, 2, RngStream(94, t), stop_after_meetings=3))
                         for t in trials]

    def test_a_range_of_another_step_is_refused(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        with pytest.raises(ValueError, match="step 1"):
            next(run_direct_batch(params, 0, range(0, 10, 2)))

    @pytest.mark.parametrize("stop", [None, 1, 3])
    def test_output_does_not_depend_on_the_first_window_reach(self, monkeypatch, stop):
        # first windows of 2, 4 and 10 edges against the default 64: at gap 3
        # the walkers' windows start apart at reach 1 and shared at 2 and 5
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=401)
        expected = scalar_records(params, 71, 24, stop=stop)
        for reach in (1, 2, 5):
            monkeypatch.setattr(direct, "_FIRST_REACH", reach)
            assert batch_records(params, 71, 24, stop=stop) == expected

    def test_largest_uniforms_move_the_last_walker(self):
        # run_direct and run_direct_batch share one compiled loop
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=3, max_events=40)
        rec = run_direct(params, 2, LargestUniform())
        assert rec.final_positions == [0, -37]
        assert rec == stepped_run_direct(params, 2, LargestUniform())

    def test_window_growth(self, monkeypatch):
        # first windows of two edges, so every excursion past the start
        # grows a window
        monkeypatch.setattr(direct, "_FIRST_REACH", 1)
        params = ModelParams(a=0.5, delta=0.9, l0=0, r0=0, max_events=3001)
        logged = [stepped_run_direct(params, 2, RngStream(72, t)) for t in range(3)]
        assert max(abs(to) for rec in logged for *_, to in rec.events) > 4
        expected = [unlogged(rec) for rec in logged]
        assert batch_records(params, 72, 3) == expected

    def test_records_hold_one_meeting_count_each(self):
        # walkers started side by side meet thousands of times in 2e4
        # events; what the rows keep must not grow with the meetings.
        # Pickling serialises everything they reach: the 64 rows take about
        # 3 KB, lists of their 288,578 meeting times about 870 KB
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=1, max_events=20_000)
        [rows] = run_direct_batch(params, 79, range(64))
        assert rows.dtype == np.int64 and rows.shape == (64, 6)
        assert rows[:, 0].sum() > 64 * 1000
        assert len(pickle.dumps(rows)) < 1 << 14

    def test_far_apart_walkers_run_without_a_dense_window(self):
        # a window over the gap would take 8 TB
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=10**12, max_events=50)
        assert batch_records(params, 76, 8) == stepped_records(params, 76, 8)

    def test_far_apart_walkers_beyond_int64_run_without_a_dense_window(self):
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=2**63 + 1, max_events=50)
        assert batch_records(params, 76, 8) == stepped_records(params, 76, 8)

    def test_trials_of_mixed_lengths_match_scalar(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=1, max_events=3000)
        got = batch_records(params, 73, 200, stop=1)
        assert got == scalar_records(params, 73, 200, stop=1)
        assert sum(rec.events_executed < 512 for rec in got) > 100
        assert sum(rec.events_executed > 1024 for rec in got) > 0

    @pytest.mark.parametrize("stop", [1, 2])
    def test_retired_trials_read_no_further_uniforms(self, stop):
        # gap 3: each trial that meets its limit stops drawing at the event
        # in which it does, some within eight events
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=3, max_events=403)
        streams = [RngStream(78, t) for t in range(64)]
        got = batch_records(params, 78, 64, stop)
        assert got == [unlogged(run_direct(params, 2, s, stop_after_meetings=stop))
                       for s in streams]
        retired = [rec.meetings == stop for rec in got]
        assert 0 < sum(done and rec.events_executed <= 8 for rec, done in zip(got, retired)) < 32
        assert sum(retired) < 64
        assert all(drew_exactly(stream, 2 * rec.events_executed)
                   for rec, stream in zip(got, streams))

    def test_an_empty_range_yields_no_records(self):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
        assert list(run_direct_batch(params, 0, range(0))) == []
        assert list(run_direct_batch(params, 0, range(5, 5))) == []

    @pytest.mark.parametrize("gap", [0, 2])
    @pytest.mark.parametrize("stop", [None, 1])
    def test_zero_budget_runs_and_draws_nothing(self, gap, stop):
        params = ModelParams(a=1.0, delta=0.5, l0=-1, r0=gap - 1, max_events=0)
        got = batch_records(params, 74, 3, stop)
        assert [(rec.meetings, rec.events_executed, rec.final_positions) for rec in got] == \
            [(int(gap == 0), 0, [-1, gap - 1])] * 3
        streams = [RngStream(74, t) for t in range(3)]
        assert got == [unlogged(run_direct(params, 2, s, stop_after_meetings=stop))
                       for s in streams]
        logged = [run_direct(params, n, RngStream(74, 0), stop_after_meetings=stop)
                  for n in (1, 2)]
        assert logged == [stepped_run_direct(params, n, RngStream(74, 0), stop) for n in (1, 2)]
        assert all(rec.events == [] for rec in logged)
        assert all(drew_exactly(stream, 0) for stream in streams)

    def test_coincident_starts_stopping_at_the_first_meeting_draw_nothing(self):
        params = ModelParams(a=1.0, delta=0.0, l0=4, r0=4, max_events=100)
        got = batch_records(params, 82, 30, stop=1)
        assert [(rec.meetings, rec.events_executed, rec.final_positions) for rec in got] == \
            [(1, 0, [4, 4])] * 30
        streams = [RngStream(82, t) for t in range(30)]
        assert got == [unlogged(run_direct(params, 2, s, stop_after_meetings=1))
                       for s in streams]
        assert all(drew_exactly(stream, 0) for stream in streams)

    @pytest.mark.parametrize("stop", [None, 1, 3, 1000])
    @pytest.mark.parametrize("trials", [3, 40, 100])
    def test_each_trial_draws_two_uniforms_per_event(self, stop, trials):
        # each stream is read from its start, two uniforms per event the
        # trial runs, and no further
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=700)
        streams = [RngStream(85, t) for t in range(trials)]
        got = batch_records(params, 85, trials, stop)
        assert got == [unlogged(run_direct(params, 2, s, stop_after_meetings=stop))
                       for s in streams]
        assert all(drew_exactly(stream, 2 * rec.events_executed)
                   for rec, stream in zip(got, streams))
        if stop is None:
            assert all(rec.events_executed == params.max_events for rec in got)

    @pytest.mark.parametrize("stop", [None, 2])
    def test_starts_beyond_int64(self, stop):
        # sites count from l0, so 30 trials run from 10**22 and end at
        # their true sites
        params = ModelParams(a=1.0, delta=0.5, l0=10**22, r0=10**22 + 2, max_events=1100)
        got = batch_records(params, 83, 30, stop)
        assert got == stepped_records(params, 83, 30, stop)
        assert all(min(rec.final_positions) > 10**22 - 1100 for rec in got)


class TestEngine:
    """The compiled event loop against the stepped oracle, event by event."""

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("delta", [0.0, 0.37, 5.0])
    @pytest.mark.parametrize("n,gap", [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 9)])
    def test_matches_the_stepped_oracle_as_windows_grow(self, monkeypatch, a, delta, n, gap):
        # first windows of two edges: each walker's grows as it leaves its
        # start, and walkers more than two sites apart start in windows of
        # their own
        monkeypatch.setattr(direct, "_FIRST_REACH", 1)
        for budget in (7, 8, 9, 600):
            params = ModelParams(a=a, delta=delta, l0=-1, r0=gap - 1, max_events=budget)
            for stop in (None, 1, 3):
                oracle = stepped_run_direct(params, n, RngStream(90, budget), stop)
                assert run_direct(params, n, RngStream(90, budget),
                                  stop_after_meetings=stop) == oracle
                if n == 2:
                    assert row_records(params, run_direct_batch(
                        params, 90, range(budget, budget + 1), stop)) == [unlogged(oracle)]

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 7, 8, 2**16 + 5])
    def test_logs_match_the_stepped_oracle_as_the_log_grows(self, budget):
        # a logged trial's code buffer holds 1 code, then 3, 7, 15, ...:
        # budgets at and past its first sizes, and past 2**16 events
        params = ModelParams(a=0.3, delta=0.37, l0=0, r0=1, max_events=budget)
        for n, stop in ((1, None), (2, None), (2, 3)):
            rng = RngStream(92, n)
            got = run_direct(params, n, rng, stop_after_meetings=stop)
            assert got == stepped_run_direct(params, n, RngStream(92, n), stop)
            assert drew_exactly(rng, 2 * got.events_executed)

    def test_windows_apart_merge_before_the_walkers_meet(self, monkeypatch):
        monkeypatch.setattr(direct, "_FIRST_REACH", 2)
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=12, max_events=3000)
        got = [run_direct(params, 2, RngStream(91, t)) for t in range(4)]
        assert got == [stepped_run_direct(params, 2, RngStream(91, t)) for t in range(4)]
        assert sum(rec.meetings for rec in got) > 0
        # each walker starts in a window of four edges of its own; walkers
        # meet only in one window, which spans both starts' windows
        assert window_widths(replace(params, max_events=0), 91, 4) == [[4, 4]] * 4
        widths = window_widths(params, 91, 4)
        assert all(w0 == w1 >= 16 for (w0, w1), rec in zip(widths, got) if rec.meetings)

    @pytest.mark.parametrize("trials,gap", [(100, 10**12), (300, 2**22 + 1),
                                            (50, 2**63 + 1), (50, 10**22)])
    def test_far_apart_starts_split_until_no_group_holds_weights(self, trials, gap):
        # each walker keeps a window of its own, and none spans the gap
        params = ModelParams(a=1.0, delta=0.5, l0=0, r0=gap, max_events=300)
        expected = stepped_records(params, 84, 5)
        got = batch_records(params, 84, trials)
        assert got[:5] == expected and got == scalar_records(params, 84, trials)
        bound = 4 * (params.max_events + 2 * direct._FIRST_REACH)
        assert max(max(widths) for widths in window_widths(params, 84, trials)) <= bound


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


def meeting_counts(params, seed, trials):
    """The meeting counts of ``trials`` two-walker trials."""
    return [rec.meetings for rec in batch_records(params, seed, trials)]


class TestMeetingStatistics:
    """The runs of equal frequency against the quadratic definition, one k
    at a time."""

    @staticmethod
    def _simulated(seed, r0=2):
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=r0, max_events=2000)
        return meeting_counts(params, seed, 40)

    # simulated counts, every count 0, one trial, equal counts, coincident
    # starts and counts far apart
    CASES = {
        "simulated": lambda: TestMeetingStatistics._simulated(67),
        "all-zero": lambda: [0] * 7,
        "one-trial": lambda: [5],
        "all-equal": lambda: [9] * 12,
        "coincident": lambda: TestMeetingStatistics._simulated(65, r0=0),
        "long-gaps": lambda: [3, 0, 50_000, 3, 2001, 2000, 1],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_runs_expand_to_the_quadratic_rows(self, case):
        counts = self.CASES[case]()
        runs = meeting_statistics(np.bincount(counts))
        expanded = [(k, f, s) for ks, f, s in runs for k in ks]
        assert expanded == quadratic_meeting_rows(counts)
        # one run ends at each distinct positive count, so consecutive runs
        # differ, and every number is a Python int or float
        assert [ks[-1] for ks, _, _ in runs] == sorted(set(counts) - {0})
        assert all(ks.step == 1 for ks, _, _ in runs)
        assert all(type(f) is float and type(s) is float for _, f, s in runs)

    def test_coincident_starts_give_frequency_one(self):
        assert meeting_statistics(np.bincount(self._simulated(65, r0=0)))[0][1:] == (1.0, 0.0)

    def test_runs_of_the_edge_cases(self):
        assert meeting_statistics(np.bincount([0] * 7)) == []
        assert meeting_statistics(np.bincount([9] * 12)) == [(range(1, 10), 1.0, 0.0)]
        assert meeting_statistics(np.bincount([5])) == [(range(1, 6), 1.0, 0.0)]
        counts = np.bincount([3, 0, 50_000, 3, 2001, 2000, 1])
        assert [len(ks) for ks, _, _ in meeting_statistics(counts)] == [1, 2, 1997, 1, 47_999]
        # counts of k past the largest N give no row
        assert meeting_statistics(np.append(counts, [0, 0])) == meeting_statistics(counts)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            meeting_statistics(np.bincount([]))
