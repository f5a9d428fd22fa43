"""Urn-driven pair dynamics and the exact enumeration certificate.

The pair's Monte Carlo walk is the inner pair of the coupled quadruple.
The merged-state pass ``compare_exact`` is checked against the
trajectory-tree oracle, and the Monte Carlo engines against its law of
the first meeting time.
"""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reinforce_sim import urn_process

from reinforce_sim.coupling import (
    CoupledState,
    Environment,
    SandwichViolationError,
    coupled_step,
    run_coupling,
)
from reinforce_sim.direct import ModelParams, right_jump_probability, run_direct, run_direct_batch
from reinforce_sim.distributions import ENVIRONMENT, RngStream, trial_streams
from reinforce_sim.urn import MagicUrn, NegativeMassError, Side, left_mass, magic_draw
from reinforce_sim.urn_process import (
    SmallAPolicyError,
    compare_exact,
    initial_masses,
)

from oracles import ExactDistribution, enumerate_exact, tv_distance


def params_for(a=1.0, delta=0.0, l0=0, r0=2, **kw):
    return ModelParams(a=a, delta=delta, l0=l0, r0=r0, **kw)


def env_for(params, seed):
    return Environment(params, RngStream(seed, 0, ENVIRONMENT))


class TestInitialMasses:
    def test_five_site_classes_unit_weights(self):
        p = params_for(a=1.0, delta=0.0, l0=0, r0=2)
        assert initial_masses(p, -1) == (0.0, 2.0)
        assert initial_masses(p, 0) == (0.0, 1.0)
        assert initial_masses(p, 1) == (1.0, 1.0)
        assert initial_masses(p, 2) == (1.0, 0.0)
        assert initial_masses(p, 3) == (2.0, 0.0)

    def test_five_site_classes_with_drift(self):
        p = params_for(a=2.0, delta=0.5, l0=-1, r0=3)
        assert initial_masses(p, -2) == (1.0, 3.5)
        assert initial_masses(p, -1) == (1.0, 2.5)
        assert initial_masses(p, 0) == (2.0, 2.5)
        assert initial_masses(p, 3) == (2.0, 1.5)
        assert initial_masses(p, 4) == (3.0, 1.5)

    def test_interior_masses_mirror_fresh_edge_weights(self):
        # interior site: both adjacent edges untraversed, so red = a and
        # blue = a + delta
        p = params_for(a=1.25, delta=0.75, l0=-3, r0=5)
        assert initial_masses(p, 0) == (1.25, 2.0)

    def test_exact_masses_equal_float_masses(self):
        p = params_for(a=0.75, delta=0.3, l0=-1, r0=2)
        for v in range(-3, 5):
            exact = initial_masses(p, v, Fraction)
            assert all(type(m) is Fraction for m in exact)
            assert [float(m) for m in exact] == list(initial_masses(p, v))


class TestSmallAPolicy:
    def test_small_a_rejected_by_default(self):
        # the environment checks it, once for all the runs it serves
        with pytest.raises(SmallAPolicyError):
            env_for(params_for(a=0.5), 71)

    def test_small_a_allowed_with_flag(self):
        p = params_for(a=0.5, allow_small_a=True)
        assert CoupledState(env_for(p, 71)).urn_at(0).pure_red == -0.5

    def test_small_a_hard_error_on_negative_effective_mass(self):
        # right particle on a fresh a<1 site of the left class
        p = params_for(a=0.5, l0=0, r0=1, allow_small_a=True)
        state = CoupledState(env_for(p, 71))
        with pytest.raises(NegativeMassError):
            magic_draw(state.urn_at(-1), Side.RIGHT, RngStream(71, 0))


def jump_probabilities(urn: MagicUrn, present: Side):
    """(left, right) jump probabilities of the present particle."""
    left = left_mass(urn, present)
    return left / urn.total, (urn.total - left) / urn.total


class TestJumpProbabilities:
    def test_closed_forms_on_random_urns(self):
        rng = RngStream(72, 0)
        for _ in range(50):
            urn = MagicUrn(
                pure_red=rng.uniform() * 5,
                pure_blue=rng.uniform() * 5,
                fam_red=rng.uniform() * 5,
                fam_blue=rng.uniform() * 5,
            )
            r = urn.red_mass
            b = urn.blue_mass
            pl, pr = jump_probabilities(urn, Side.LEFT)
            assert pl == pytest.approx((r + 1) / (r + b + 1))
            assert pr == pytest.approx(b / (r + b + 1))
            ql, qr = jump_probabilities(urn, Side.RIGHT)
            assert ql == pytest.approx(r / (r + b + 1))
            assert qr == pytest.approx((b + 1) / (r + b + 1))
            assert pl + pr == pytest.approx(1.0)

    def test_fresh_start_sites_are_balanced(self):
        # a=1, delta=0: both particles start with symmetric jumps
        p = params_for()
        left_urn = MagicUrn(*initial_masses(p, 0))
        assert jump_probabilities(left_urn, Side.LEFT) == (0.5, 0.5)
        right_urn = MagicUrn(*initial_masses(p, 2))
        assert jump_probabilities(right_urn, Side.RIGHT) == (0.5, 0.5)


class TestUrnProcessStep:
    def test_urns_materialize_lazily(self):
        state = CoupledState(env_for(params_for(), 72))
        assert state.urns == {}
        urn = state.urn_at(1)
        assert (urn.pure_red, urn.pure_blue) == (1.0, 1.0)
        assert state.urn_at(1) is urn and list(state.urns) == [1]

    def test_moves_exactly_one_particle(self):
        # the coupled quadruple's inner pair is the urn-driven pair
        p = params_for(r0=4)
        state = CoupledState(env_for(p, 73))
        g = coupled_step(state, RngStream(73, 0))
        if g == "l_group":
            assert state.l in (-1, 1) and state.r == 4
        else:
            assert g == "r_group" and state.l == 0 and state.r in (3, 5)

    def test_meeting_or_crossing_is_an_error(self):
        p = params_for()
        state = CoupledState(env_for(p, 74))
        rng = RngStream(74, 0)
        for l, r in ((1, 1), (2, 1)):  # met, crossed
            state.l, state.r = l, r
            with pytest.raises(SandwichViolationError):
                coupled_step(state, rng)

    def test_run_stops_at_first_meeting(self):
        p = params_for(max_events=100_000)
        res = run_coupling(RngStream(75, 0), env_for(p, 75))
        assert res.tau1_event == res.events_executed

    def test_coincident_start_returns_zero(self):
        p = params_for(l0=2, r0=2, max_events=100)
        res = run_coupling(RngStream(76, 0), env_for(p, 76))
        assert (res.tau1_event, res.events_executed) == (0, 0)

    def test_budget_exhaustion_returns_none(self):
        p = params_for(max_events=1)
        res = run_coupling(RngStream(77, 0), env_for(p, 77))
        assert (res.tau1_event, res.events_executed) == (None, 1)


def meeting_law(d: ExactDistribution) -> tuple[Fraction, ...]:
    """P(tau1 = k), k <= horizon, summed over the tree's trajectories."""
    law = [Fraction(0)] * (d.horizon + 1)
    for traj, prob in d.probs.items():
        l, r = d.params.l0, d.params.r0
        for mover, direction in traj:
            step = 1 if direction else -1
            l, r = (l + step, r) if mover == 0 else (l, r + step)
        if l == r:
            law[len(traj)] += prob
    return tuple(law)


def assert_pass_matches_tree(p: ModelParams, h: int):
    """compare_exact gives the trees' TV, trajectory counts, meeting laws
    and total masses exactly; returns its result."""
    d1, d2 = enumerate_exact("direct", p, h), enumerate_exact("urn", p, h)
    c = compare_exact(p, h)
    assert c.tv_distance == tv_distance(d1, d2)
    assert (c.trajectories_direct, c.trajectories_urn) == (len(d1.probs), len(d2.probs))
    assert (c.mass_direct, c.mass_urn) == (sum(d1.probs.values()), sum(d2.probs.values()))
    assert (c.meeting_direct, c.meeting_urn) == (meeting_law(d1), meeting_law(d2))
    return c


def shifted_red(v0: int, shift: Fraction):
    """initial_masses with the red mass of site v0 moved by ``shift``."""
    def masses(params, v, num=float):
        red, blue = initial_masses(params, v, num)
        return (red + shift, blue) if v == v0 else (red, blue)
    return masses


class TestEnumeration:
    def test_horizon_zero_is_unit_mass_on_empty_trajectory(self):
        d = enumerate_exact("direct", params_for(), 0)
        assert d.probs == {(): Fraction(1)}
        c = compare_exact(params_for(), 0)
        assert (c.trajectories_direct, c.trajectories_urn) == (1, 1)
        assert c.mass_direct == c.mass_urn == 1
        assert c.meeting_direct == c.meeting_urn == (0,)

    def test_single_event_probabilities(self):
        # a=1, delta=0: either particle moves with probability 1/2, then
        # jumps each way with probability 1/2
        d = enumerate_exact("direct", params_for(), 1)
        assert all(p == Fraction(1, 4) for p in d.probs.values())
        assert len(d.probs) == 4

    def test_total_mass_is_exactly_one(self):
        for model in ("direct", "urn"):
            d = enumerate_exact(model, params_for(a=1.5, delta=0.25), 4)
            assert sum(d.probs.values()) == 1

    def test_short_branches_end_at_meetings(self):
        d = enumerate_exact("direct", params_for(r0=2), 4)
        for traj in d.probs:
            if len(traj) == 4:
                continue
            l, r = 0, 2
            for mover, direction in traj:
                step = 1 if direction == 1 else -1
                if mover == 0:
                    l += step
                else:
                    r += step
            assert l == r  # truncated only by absorption

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("l0,r0", [(0, 1), (0, 2), (0, 3)])
    def test_urn_matches_direct_exactly(self, a, delta, l0, r0):
        # the criterion-1 grid: the merged pass against the trees, h <= 6
        p = params_for(a=a, delta=delta, l0=l0, r0=r0)
        for h in range(7):
            c = assert_pass_matches_tree(p, h)
            assert c.tv_distance == 0
            assert c.meeting_direct == c.meeting_urn
            assert c.mass_direct == c.mass_urn == 1

    def test_urn_matches_direct_for_small_a(self):
        p = params_for(a=0.5, delta=0.5, l0=0, r0=2, allow_small_a=True)
        assert assert_pass_matches_tree(p, 4).tv_distance == 0

    def test_benchmark_trajectory_counts(self):
        c = compare_exact(params_for(a=2.0, delta=0.5, l0=0, r0=3), 7)
        assert (c.tv_distance, c.trajectories_direct, c.trajectories_urn) == (0, 12904, 12904)
        assert c.mass_direct == c.mass_urn == 1

    @pytest.mark.parametrize("h", [3, 5, 6])
    def test_perturbed_red_mass_gives_the_trees_tv(self, monkeypatch, h):
        monkeypatch.setattr(urn_process, "initial_masses", shifted_red(0, Fraction(1, 2)))
        c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=0, r0=2), h)
        assert c.tv_distance > 0
        assert c.trajectories_direct == c.trajectories_urn
        assert c.mass_direct == c.mass_urn == 1

    @pytest.mark.parametrize("h", [3, 5])
    def test_urn_kernel_with_a_blocked_jump(self, monkeypatch, h):
        # red a - 1 = 1 at l0 becomes -1: the left particle never jumps
        # left from l0 in the urn model, so those paths have q = 0 (rho = 0)
        monkeypatch.setattr(urn_process, "initial_masses", shifted_red(0, Fraction(-2)))
        c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=0, r0=2), h)
        assert c.tv_distance > 0
        assert c.trajectories_urn < c.trajectories_direct
        assert c.mass_direct == c.mass_urn == 1

    @pytest.mark.parametrize("h", [3, 5])
    def test_direct_kernel_with_a_blocked_jump(self, monkeypatch, h):
        # no left jump from site 0 in the weight dynamics: those urn paths
        # have p = 0 (rho = infinity) and carry their q mass
        def blocked(weights, v, delta):
            return Fraction(1) if v == 0 else right_jump_probability(weights, v, delta)
        monkeypatch.setattr(urn_process, "right_jump_probability", blocked)
        c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=0, r0=2), h)
        assert c.tv_distance > 0
        assert c.trajectories_direct < c.trajectories_urn
        assert c.mass_direct == c.mass_urn == 1

    @pytest.mark.parametrize("v0", [-1, 1, 2])  # l0 - 1, l0 + 1, r0
    @pytest.mark.parametrize("kernel", ["red + 1/2", "blocked urn", "blocked direct"])
    def test_patched_kernels_at_other_sites_give_the_trees_tv(self, monkeypatch, kernel, v0):
        # the three patched kernels above, moved off l0: the ratio of urn to
        # direct probability changes at several depths, and a blocked jump
        # leaves paths that only one model can take
        if kernel == "blocked direct":
            def blocked(weights, v, delta):
                return Fraction(1) if v == v0 else right_jump_probability(weights, v, delta)
            monkeypatch.setattr(urn_process, "right_jump_probability", blocked)
        else:
            shift = Fraction(1, 2) if kernel == "red + 1/2" else Fraction(-2)
            monkeypatch.setattr(urn_process, "initial_masses", shifted_red(v0, shift))
        for h in (3, 5, 6):
            c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=0, r0=2), h)
            assert c.tv_distance > 0
            assert c.mass_direct == c.mass_urn == 1
            if kernel == "red + 1/2":
                assert c.trajectories_direct == c.trajectories_urn
            elif kernel == "blocked urn":
                assert c.trajectories_urn < c.trajectories_direct
            else:
                assert c.trajectories_direct < c.trajectories_urn

    def test_each_kernel_key_is_computed_once_per_pass(self, monkeypatch):
        # count the kernels' inputs by the pass's cache keys: the site and
        # its two edge weights; the site (as initial_masses sees it), the
        # site's jumps and the present particle
        calls, sites = Counter(), []

        def counted_right(weights, v, delta):
            calls["right", v, weights.weight(v - 1), weights.weight(v)] += 1
            return right_jump_probability(weights, v, delta)

        def counted_masses(params, v, num=float):
            sites.append(v)
            return initial_masses(params, v, num)

        def counted_left(urn, present):
            calls["left", sites[-1], urn.fam_red, urn.fam_blue, present] += 1
            return left_mass(urn, present)

        monkeypatch.setattr(urn_process, "right_jump_probability", counted_right)
        monkeypatch.setattr(urn_process, "initial_masses", counted_masses)
        monkeypatch.setattr(urn_process, "left_mass", counted_left)
        p = params_for(a=2.0, delta=0.5, l0=0, r0=3)
        keys = []
        for _ in range(2):  # the cache lives inside one pass
            calls.clear()
            c = compare_exact(p, 7)
            assert (c.tv_distance, c.trajectories_direct) == (0, 12904)
            assert set(calls.values()) == {1}
            keys.append(set(calls))
        assert keys[0] == keys[1]
        assert len([k for k in keys[0] if k[0] == "right"]) > 50
        assert len([k for k in keys[0] if k[0] == "left"]) > 50

    @pytest.mark.parametrize("r0", [1, 2, 3])
    def test_binary_rational_parameters_match_the_trees(self, r0):
        # 1.1 and 0.3 are binary rationals with 2**-52-scale denominators,
        # so the pass's integer pairs grow large
        p = params_for(a=1.1, delta=0.3, l0=0, r0=r0)
        for h in range(5):
            c = assert_pass_matches_tree(p, h)
            assert c.tv_distance == 0
            assert c.mass_direct == c.mass_urn == 1

    def test_fields_are_fractions(self):
        c = compare_exact(params_for(a=1.1, delta=0.3, l0=0, r0=2), 4)
        fractions = [c.tv_distance, c.mass_direct, c.mass_urn, *c.meeting_direct, *c.meeting_urn]
        assert all(type(x) is Fraction for x in fractions)
        assert type(c.trajectories_direct) is type(c.trajectories_urn) is int

    def test_default_bound_at_the_benchmark_parameters(self):
        # horizon 11 fits in MAX_LIVE_STATES = 10,000 (8,094 states in its
        # last layer); horizon 12 needs 14,124 at depth 12
        p = params_for(a=2.0, delta=0.5, l0=0, r0=3)
        c = compare_exact(p, 11)
        assert c.tv_distance == 0
        assert c.mass_direct == c.mass_urn == 1
        with pytest.raises(ValueError,
                           match="MAX_LIVE_STATES = 10000 live joint states at depth 12"):
            compare_exact(p, 12)

    def test_simulation_frequencies_match_enumeration(self):
        # one event of the coupled quadruple from its start, tying the
        # sampler that `couple` runs to the enumerator: with both outer
        # walkers on their partners each inner walker moves with
        # probability 1/2 and draws from its urn
        p = params_for(a=2.0, delta=0.5)
        d = enumerate_exact("urn", p, 1)
        env, rng = env_for(p, 78), RngStream(78, 0)
        n = 40_000
        counts = {}
        for _ in range(n):
            state = CoupledState(env)
            mover = ("l_group", "r_group").index(coupled_step(state, rng))
            to = (state.l, state.r)[mover]
            key = ((mover, int(to > (p.l0, p.r0)[mover])),)
            counts[key] = counts.get(key, 0) + 1
        for traj, prob in d.probs.items():
            f = counts.get(traj, 0) / n
            pf = float(prob)
            assert abs(f - pf) < 4 * (pf * (1 - pf) / n) ** 0.5

    def test_horizon_guard(self, monkeypatch):
        monkeypatch.setattr(urn_process, "MAX_LIVE_STATES", 100)
        compare_exact(params_for(), 4)  # layers of 1, 4, 12, 26 and 63 states, then 120
        with pytest.raises(ValueError, match="MAX_LIVE_STATES = 100 live joint states at depth 5"):
            compare_exact(params_for(), 20)
        with pytest.raises(ValueError):
            compare_exact(params_for(), -1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            enumerate_exact("other", params_for(), 1)

    def test_small_a_policy_applies_to_urn_enumeration(self):
        with pytest.raises(SmallAPolicyError):
            enumerate_exact("urn", params_for(a=0.5), 2)
        with pytest.raises(SmallAPolicyError):
            compare_exact(params_for(a=0.5), 2)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        delta=st.sampled_from([0.0, 0.25, 0.5, 1.5]),
        gap=st.integers(min_value=1, max_value=3),
        horizon=st.integers(min_value=0, max_value=3),
    )
    def test_equivalence_property(self, a, delta, gap, horizon):
        p = params_for(a=a, delta=delta, l0=0, r0=gap)
        c = assert_pass_matches_tree(p, horizon)
        assert c.tv_distance == 0
        assert c.mass_direct == c.mass_urn == 1  # so the trees' masses are 1 too


# P(tau1 = k) of every Monte Carlo engine against compare_exact's law: gap
# 2, so the particles can meet at even k only, and a count at an odd k
# fails outright.  Each engine's test has family-wise level MEETING_ALPHA,
# split (Bonferroni) over the cells tau1 = k and tau1 > horizon of
# positive probability.  At gap 2 and a = 1 the law leans on reinforcement
# from the second event on; at gap 1 most meetings come at k = 1, before
# any edge is reinforced.
MEETING_PARAMS = params_for(a=1.0, delta=0.0, l0=0, r0=2, max_events=10)
MEETING_ALPHA = 0.01
MEETING_TRIALS = 10_000


def assert_meeting_law(taus: list, law: tuple) -> None:
    """Binomial test of the counts of tau1 = k (None: no meeting by the
    horizon) against the exact law."""
    cells = {k: law[k] for k in range(len(law))}
    cells[None] = 1 - sum(law)
    tested = [k for k, prob in cells.items() if prob > 0]
    counts = {k: taus.count(k) for k in cells}
    assert sum(counts.values()) == len(taus)  # every tau lies in a cell
    for k, prob in cells.items():
        if prob == 0:
            assert counts[k] == 0, f"tau1 = {k} has probability 0"
            continue
        pvalue = stats.binomtest(counts[k], len(taus), float(prob)).pvalue
        assert pvalue >= MEETING_ALPHA / len(tested), (k, counts[k], float(prob), pvalue)


class TestMeetingLaw:
    @pytest.fixture(scope="class")
    def law(self):
        c = compare_exact(MEETING_PARAMS, MEETING_PARAMS.max_events)
        assert c.meeting_direct == c.meeting_urn
        return c.meeting_direct

    def test_run_direct(self, law):
        taus = []
        for rng in trial_streams(1201, MEETING_TRIALS):
            rec = run_direct(MEETING_PARAMS, 2, rng, record_events=False, stop_after_meetings=1)
            taus.append(rec.events_executed if rec.meetings else None)
        assert_meeting_law(taus, law)

    def test_run_direct_batch(self, law):
        streams = (RngStream(1202, t) for t in range(MEETING_TRIALS))
        records = run_direct_batch(MEETING_PARAMS, 2, streams, stop_after_meetings=1)
        assert_meeting_law([r.events_executed if r.meetings else None for r in records], law)

    def test_coupled_inner_pair(self, law):
        # tau1 counts the inner pair's moves only; free outer steps are
        # not events of the urn process
        taus = []
        for rng, env_rng in zip(trial_streams(1203, MEETING_TRIALS),
                                trial_streams(1203, MEETING_TRIALS, ENVIRONMENT)):
            state = CoupledState(Environment(MEETING_PARAMS, env_rng))
            moves, tau = 0, None
            while moves < MEETING_PARAMS.max_events:
                if coupled_step(state, rng) in ("l_group", "r_group"):
                    moves += 1
                    if state.l == state.r:
                        tau = moves
                        break
            taus.append(tau)
        assert_meeting_law(taus, law)


class TestWeightAgreement:
    """Along every enumerated branch the urn's effective edge weights must
    equal the reinforced edge weights of the weight dynamics."""

    def co_walk(self, p: ModelParams, horizon: int):
        a = Fraction(p.a)
        delta = Fraction(p.delta)

        def rec(urns, weights, l, r, depth):
            if l == r or depth == 0:
                return
            for mover_idx, present in ((0, Side.LEFT), (1, Side.RIGHT)):
                v = l if mover_idx == 0 else r
                urn = urns.get(v) or MagicUrn(*initial_masses(p, v, Fraction))
                wl = weights.get(v - 1, a)
                wr = weights.get(v, a) + delta
                eff_l = left_mass(urn, present)
                eff_r = urn.total - eff_l
                assert eff_l == wl
                assert eff_r == wr
                for d_idx in (0, 1):
                    mass = eff_l if d_idx == 0 else eff_r
                    if mass <= 0:
                        continue
                    u2 = dict(urns)
                    w2 = dict(weights)
                    if d_idx == 0:
                        u2[v] = MagicUrn(urn.pure_red, urn.pure_blue,
                                         urn.fam_red + 2, urn.fam_blue)
                        w2[v - 1] = wl + 1
                        nl, nr = (v - 1, r) if mover_idx == 0 else (l, v - 1)
                    else:
                        u2[v] = MagicUrn(urn.pure_red, urn.pure_blue,
                                         urn.fam_red, urn.fam_blue + 2)
                        w2[v] = weights.get(v, a) + 1
                        nl, nr = (v + 1, r) if mover_idx == 0 else (l, v + 1)
                    rec(u2, w2, nl, nr, depth - 1)

        rec({}, {}, p.l0, p.r0, horizon)

    @pytest.mark.parametrize("a,delta", [(1.0, 0.0), (2.0, 0.5)])
    def test_effective_weights_track_reinforcement(self, a, delta):
        self.co_walk(params_for(a=a, delta=delta, l0=0, r0=2), 4)


class TestTvDistance:
    def test_zero_against_itself(self):
        d = enumerate_exact("direct", params_for(), 3)
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports_give_one(self):
        p = params_for()
        d1 = ExactDistribution(1, p, {((0, 0),): Fraction(1)})
        d2 = ExactDistribution(1, p, {((1, 1),): Fraction(1)})
        assert tv_distance(d1, d2) == 1.0

    def test_mismatched_inputs_rejected(self):
        p = params_for()
        d1 = enumerate_exact("direct", p, 2)
        d2 = enumerate_exact("direct", p, 3)
        with pytest.raises(ValueError):
            tv_distance(d1, d2)
        d3 = enumerate_exact("direct", params_for(a=2.0), 2)
        with pytest.raises(ValueError):
            tv_distance(d1, d3)
