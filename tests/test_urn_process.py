"""Urn-driven pair dynamics and the exact enumeration certificate.

The pair's Monte Carlo walk is the inner pair of the coupled quadruple.
The merged-state pass ``compare_exact`` is checked against the
trajectory-tree oracle, and the Monte Carlo engines against its law of
the first meeting time.
"""
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reinforce_sim import urn_process
from reinforce_sim.cli import main

from reinforce_sim.coupling import (
    CoupledState,
    Environment,
    SandwichViolationError,
    run_coupling,
)
from reinforce_sim.direct import ModelParams, run_direct, run_direct_batch
from reinforce_sim.distributions import ENVIRONMENT, RngStream, trial_streams
from reinforce_sim.urn import MagicUrn, NegativeMassError
from reinforce_sim.urn_process import (
    KernelDifference,
    SmallAPolicyError,
    compare_exact,
    initial_masses,
)

import oracles
from oracles import (
    ExactDistribution,
    blocked_right,
    blocked_right_probability,
    enumerate_exact,
    first_kernel_difference,
    left_mass,
    one_event,
    right_jump_probability,
    shifted_red,
    stream_step,
    total_mass,
    tv_distance,
)


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
        state.lP, state.l, state.r, state.rP = -2, -2, -1, -1
        with pytest.raises(NegativeMassError):
            one_event(state, 0.75, RngStream(71, 0).gen.random())  # the r group draws


def jump_probabilities(urn: MagicUrn, left_present: bool):
    """(left, right) jump probabilities of the present particle."""
    left, total = left_mass(urn, left_present), total_mass(urn)
    return left / total, (total - left) / total


class TestJumpProbabilities:
    def test_closed_forms_on_random_urns(self):
        rng = RngStream(72, 0)
        for _ in range(50):
            urn = MagicUrn(
                pure_red=rng.gen.random() * 5,
                pure_blue=rng.gen.random() * 5,
                fam_red=rng.gen.random() * 5,
                fam_blue=rng.gen.random() * 5,
            )
            r = urn.pure_red + urn.fam_red
            b = urn.pure_blue + urn.fam_blue
            pl, pr = jump_probabilities(urn, True)
            assert pl == pytest.approx((r + 1) / (r + b + 1))
            assert pr == pytest.approx(b / (r + b + 1))
            ql, qr = jump_probabilities(urn, False)
            assert ql == pytest.approx(r / (r + b + 1))
            assert qr == pytest.approx((b + 1) / (r + b + 1))
            assert pl + pr == pytest.approx(1.0)

    def test_fresh_start_sites_are_balanced(self):
        # a=1, delta=0: both particles start with symmetric jumps
        p = params_for()
        left_urn = MagicUrn(*initial_masses(p, 0))
        assert jump_probabilities(left_urn, True) == (0.5, 0.5)
        right_urn = MagicUrn(*initial_masses(p, 2))
        assert jump_probabilities(right_urn, False) == (0.5, 0.5)


# (a, allow_small_a) and delta of the integer kernels' grid: a = 1.1 and
# delta = 0.3 have 2**-52-scale denominators; a < 1 makes masses negative
KERNEL_A = [(1.0, False), (2.0, False), (1.1, False), (1e6, False), (0.5, True), (0.75, True)]
KERNEL_DELTA = [0.0, 0.3, 0.5, 1e6]


class TestIntegerKernels:
    """``compare_exact``'s kernels, pairs of ints, against the ``Fraction``
    forms of the trees, at traversals and jumps 0 to 8 from every site
    class (l0 = -1, r0 = 1) with either particle present."""

    @pytest.mark.parametrize("delta", KERNEL_DELTA)
    @pytest.mark.parametrize("a,small", KERNEL_A)
    def test_direct_kernel_is_right_jump_probability(self, a, small, delta):
        p_right = urn_process.direct_kernel(params_for(a, delta, -1, 1, allow_small_a=small))
        exact_a, exact_delta = Fraction(a), Fraction(delta)
        for v, left_edge, right_edge in product((-2, 0, 2), range(9), range(9)):
            weights = {v - 1: exact_a + left_edge, v: exact_a + right_edge}
            assert p_right(v, left_edge, right_edge) == \
                right_jump_probability(weights, v, exact_delta).as_integer_ratio()

    # the red mass at l0 moved by a shift whose denominator a and delta
    # do not have; -7/3 makes masses negative at a >= 1 too
    @pytest.mark.parametrize("shift", [None, Fraction(1, 2), Fraction(-7, 3)])
    @pytest.mark.parametrize("delta", KERNEL_DELTA)
    @pytest.mark.parametrize("a,small", KERNEL_A)
    def test_urn_kernel_is_left_mass_over_total(self, monkeypatch, a, small, delta, shift):
        if shift is not None:
            monkeypatch.setattr(urn_process, "initial_masses", shifted_red(-1, shift))
        params = params_for(a, delta, -1, 1, allow_small_a=small)
        q_left = urn_process.urn_kernel(params)
        for v, left_present, lj, rj in product(range(-3, 4), (True, False), range(9), range(9)):
            urn = MagicUrn(*urn_process.initial_masses(params, v, Fraction), 2 * lj, 2 * rj)
            try:
                expected = (left_mass(urn, left_present) / total_mass(urn)).as_integer_ratio()
            except NegativeMassError as error:
                with pytest.raises(NegativeMassError) as raised:
                    q_left(v, left_present, lj, rj)
                assert str(raised.value) == str(error)
            else:
                assert q_left(v, left_present, lj, rj) == expected


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
        g = stream_step(state, RngStream(73, 0))
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
                stream_step(state, rng)

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
    and total masses exactly; returns its result.  The pass's laws end at
    its last layer, the depth of the trees' longest trajectory (h unless
    every path has met before), and the trees' laws are 0 past it."""
    d1, d2 = enumerate_exact("direct", p, h), enumerate_exact("urn", p, h)
    c = compare_exact(p, h)
    assert c.tv_distance == tv_distance(d1, d2)
    assert (c.trajectories_direct, c.trajectories_urn) == (len(d1.probs), len(d2.probs))
    assert (c.mass_direct, c.mass_urn) == (sum(d1.probs.values()), sum(d2.probs.values()))
    layers = 1 + max(len(traj) for traj in (*d1.probs, *d2.probs))
    tree_direct, tree_urn = meeting_law(d1), meeting_law(d2)
    assert (c.meeting_direct, c.meeting_urn) == (tree_direct[:layers], tree_urn[:layers])
    assert not any(tree_direct[layers:]) and not any(tree_urn[layers:])
    return c


def patch_kernel(monkeypatch, kernel: str, v0: int) -> None:
    """Perturb one model's kernel at site v0: the urn's red mass by 1/2
    ("red + 1/2") or by -2, so its left jump is blocked ("blocked urn"), or
    the weight dynamics' left jump ("blocked direct"), in the pass and in
    the trees."""
    if kernel == "blocked direct":
        monkeypatch.setattr(urn_process, "direct_kernel", blocked_right(v0))
        monkeypatch.setattr(oracles, "right_jump_probability", blocked_right_probability(v0))
    else:
        shift = Fraction(1, 2) if kernel == "red + 1/2" else Fraction(-2)
        monkeypatch.setattr(urn_process, "initial_masses", shifted_red(v0, shift))


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

    def test_a_coincident_start_ends_at_once_at_any_horizon(self):
        # every path has met at depth 0, so the pass runs one layer and its
        # laws end there, however far the horizon
        c = compare_exact(params_for(a=2.0, delta=0.5, l0=3, r0=3), 10**12)
        assert c.meeting_direct == c.meeting_urn == (1,)
        assert c.mass_direct == c.mass_urn == 1
        assert (c.trajectories_direct, c.trajectories_urn) == (1, 1)
        assert c.tv_distance == 0 and c.first_difference is None

    def test_a_pass_whose_paths_all_meet_matches_the_tree(self):
        # the trees' laws run to the horizon; the pass's end at depth 0
        c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=3, r0=3), 6)
        assert c.meeting_direct == c.meeting_urn == (1,)

    def test_a_huge_horizon_is_refused_by_its_live_states(self):
        # nothing in the pass is sized by the horizon: the layers refuse it
        with pytest.raises(ValueError, match="horizon 1000000000000 needs more than "
                                             "MAX_LIVE_STATES = 10000 live joint states"):
            compare_exact(params_for(l0=0, r0=2), 10**12)

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
        assert c.first_difference is None

    @pytest.mark.parametrize("l0,r0", [(-4, -1), (5, 9), (-2, 2)])
    def test_starts_off_the_origin_match_the_trees(self, l0, r0):
        # the window of sites moves with the starts; at gap 4 its two
        # ranges are apart at h = 1 and one range from h = 2 on
        p = params_for(a=2.0, delta=0.5, l0=l0, r0=r0)
        for h in range(7):
            c = assert_pass_matches_tree(p, h)
            assert c.tv_distance == 0
            assert c.mass_direct == c.mass_urn == 1

    @pytest.mark.parametrize("radius", [1, 3])
    def test_a_pass_past_the_window_is_refused(self, monkeypatch, radius):
        # under a window of a smaller radius than the horizon, a pass that
        # gets as deep as the radius is refused; a shallower horizon gives
        # the results of the full window, and so does a pass whose paths
        # have all met before that depth
        cases = [(params_for(a=2.0, delta=0.5, l0=l0, r0=r0), h)
                 for l0, r0 in ((0, 1), (5, 9), (0, 10**6)) for h in range(8)]
        coincident = params_for(a=2.0, delta=0.5, l0=3, r0=3)
        expected = [compare_exact(p, h) for p, h in cases]
        expected_coincident = compare_exact(coincident, 7)
        monkeypatch.setattr(urn_process, "_WINDOW_RADIUS", radius)
        for (p, h), c in zip(cases, expected):
            if h <= radius:
                assert compare_exact(p, h) == c
            else:
                with pytest.raises(ValueError, match=f"horizon {h} needs a site window of "
                                                     f"radius more than {radius} at depth {radius}"):
                    compare_exact(p, h)
        assert compare_exact(coincident, 7) == expected_coincident

    def test_far_apart_walkers_never_meet(self):
        # the window is two ranges of 2h + 1 sites: the walkers 10**6
        # apart move independently, so every one of the 4**h trajectories
        # survives in both models
        c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=0, r0=10**6), 6)
        assert c.trajectories_direct == c.trajectories_urn == 4**6
        assert c.tv_distance == 0
        assert not any(c.meeting_direct) and not any(c.meeting_urn)

    def test_keys_do_not_grow_with_the_gap(self):
        # a key packs the window's 2 * (4h + 2) one-bit fields (the pass
        # peaks near 5 kB); one that spanned the gap would pack 2 * 10**7,
        # 2.5 MB, in each of the right walker's two children
        tracemalloc.start()
        try:
            compare_exact(params_for(l0=0, r0=10**7), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_first_difference_of_a_shifted_red_mass(self, monkeypatch):
        # a = 2, delta = 1/2: at l0 the weights are 2 and 5/2, so the
        # direct left jump has probability 4/9; the urn's red mass a - 1
        # becomes 3/2 against blue 5/2, and the left walker's chameleon
        # marble is red, so its left jump has probability 5/2 / 5 = 1/2
        patch_kernel(monkeypatch, "red + 1/2", 0)
        c = compare_exact(params_for(a=2.0, delta=0.5, l0=0, r0=2), 5)
        assert c.first_difference == KernelDifference(
            depth=0, l=0, r=2, mover=0, right=False, site_jumps=(0, 0),
            p_direct=Fraction(4, 9), p_urn=Fraction(1, 2))

    @pytest.mark.parametrize("v0", [-1, 0, 1, 2])
    @pytest.mark.parametrize("kernel", ["red + 1/2", "blocked urn", "blocked direct"])
    def test_first_difference_is_the_trees_first(self, monkeypatch, kernel, v0):
        # off l0 and r0 the first difference comes at depth 1, at the node
        # the pass builds first among those with a walker at v0
        patch_kernel(monkeypatch, kernel, v0)
        p = params_for(a=2.0, delta=0.5, l0=0, r0=2)
        first = compare_exact(p, 5).first_difference
        assert tuple(first) == first_kernel_difference(p, 5)
        assert first.depth == (0 if v0 in (0, 2) else 1)

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
        patch_kernel(monkeypatch, "blocked direct", 0)
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
        patch_kernel(monkeypatch, kernel, v0)
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
        # its two edges' traversals; the site, the present particle and the
        # site's jumps; and each site's initial masses, read once
        calls, sites = Counter(), []

        def counted(name, factory):
            def counted_factory(params):
                kernel = factory(params)

                def counted_kernel(*key):
                    calls[name, *key] += 1
                    return kernel(*key)
                return counted_kernel
            return counted_factory

        def counted_masses(params, v, num=float):
            sites.append(v)
            return initial_masses(params, v, num)

        monkeypatch.setattr(urn_process, "direct_kernel",
                            counted("right", urn_process.direct_kernel))
        monkeypatch.setattr(urn_process, "urn_kernel", counted("left", urn_process.urn_kernel))
        monkeypatch.setattr(urn_process, "initial_masses", counted_masses)
        p = params_for(a=2.0, delta=0.5, l0=0, r0=3)
        keys = []
        for _ in range(2):  # the caches live inside one pass
            calls.clear()
            sites.clear()
            c = compare_exact(p, 7)
            assert (c.tv_distance, c.trajectories_direct) == (0, 12904)
            assert set(calls.values()) == {1}
            assert sorted(sites) == sorted(set(sites)) == sorted({k[1] for k in calls
                                                                   if k[0] == "left"})
            keys.append(set(calls))
        assert keys[0] == keys[1]
        assert len([k for k in keys[0] if k[0] == "right"]) > 50
        assert len([k for k in keys[0] if k[0] == "left"]) > 50

    @pytest.mark.parametrize("h", [0, 3, 7])
    def test_a_pass_builds_fractions_only_in_its_layer_sums(self, monkeypatch, h):
        # the kernels are pairs of ints: the pass's own Fractions are its
        # five sums per layer (the masses, the TV and the two meeting
        # probabilities); the initial masses are read in Fractions, once
        # per site, through the number type the pass hands over
        built = Counter()

        def counted(*args):
            built[sys._getframe(1).f_code.co_name] += 1
            return Fraction(*args)

        monkeypatch.setattr(urn_process, "Fraction", counted)
        c = compare_exact(params_for(a=1.1, delta=0.3, l0=0, r0=3), h)
        assert c.tv_distance == 0
        layers = len(c.meeting_direct)
        assert layers == h + 1
        assert built["compare_exact"] == 5 * layers
        assert built["initial_masses"] <= 2 * (4 * layers + 2)  # a, delta per site read
        assert set(built) <= {"compare_exact", "initial_masses"}

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

    @pytest.mark.parametrize("h", [9, 11])
    def test_deep_passes_keep_their_recorded_laws(self, h):
        # past the tree oracle's reach (4**h trajectories): the counts and
        # the law of tau1 recorded from the earlier pass, whose keys held
        # the jumps as a tuple; at gap 3 the walkers meet at odd k only
        c = compare_exact(params_for(a=2.0, delta=0.5, l0=0, r0=3), h)
        law = (0, 0, 0, Fraction(283, 2904), 0, Fraction(90412397, 1121234400), 0,
               Fraction(15873189502033, 247716558460800), 0,
               Fraction(32052511734940385591, 618387478430176540800), 0,
               Fraction(1837987213654977926497379, 42854252255211234277440000))
        assert c.trajectories_direct == c.trajectories_urn == {9: 187_624, 11: 2_768_104}[h]
        assert c.meeting_direct == c.meeting_urn == law[:h + 1]

    @pytest.mark.parametrize("h", [3, 5])
    def test_packed_jump_fields_hold_the_most_jumps_a_pass_allows(self, h):
        # a key packs each window site's left and right jumps into fields
        # of radius.bit_length() bits, and the radius is h here; a walker
        # going back and forth over one edge jumps (h + 1) // 2 times from
        # one side of one site, the most h events allow
        for l0, r0 in ((0, 1), (0, 2), (0, 3), (5, 9), (0, 40)):
            c = assert_pass_matches_tree(params_for(a=2.0, delta=0.5, l0=l0, r0=r0), h)
            assert c.tv_distance == 0

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
            mover = ("l_group", "r_group").index(stream_step(state, rng))
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
        # the window grows with the depth reached, not with the horizon
        with pytest.raises(ValueError, match="horizon 1000000 needs more than MAX_LIVE_STATES "
                                             "= 100 live joint states at depth 5"):
            compare_exact(params_for(), 10**6)
        with pytest.raises(ValueError):
            compare_exact(params_for(), -1)

    def test_horizon_guard_far_apart(self, monkeypatch):
        monkeypatch.setattr(urn_process, "MAX_LIVE_STATES", 100)
        far = params_for(l0=0, r0=10**6)
        compare_exact(far, 4)  # layers of 1, 4, 12, 32 and 78 states, then 180
        with pytest.raises(ValueError, match="MAX_LIVE_STATES = 100 live joint states at depth 5"):
            compare_exact(far, 20)

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
    horizon) against the exact law, P(tau1 = k) = law[k]; or of any other
    value k, with None for the values past the law."""
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
            rec = run_direct(MEETING_PARAMS, 2, rng, stop_after_meetings=1)
            taus.append(rec.events_executed if rec.meetings else None)
        assert_meeting_law(taus, law)

    def test_run_direct_batch(self, law):
        rows = np.concatenate(list(run_direct_batch(MEETING_PARAMS, 1202, range(MEETING_TRIALS),
                                                    stop_after_meetings=1)))
        assert_meeting_law([e if m else None for m, e in rows[:, :2].tolist()], law)

    def test_coupled_inner_pair(self, law):
        # tau1 counts the inner pair's moves only; free outer steps are
        # not events of the urn process
        taus = []
        for rng, env_rng in zip(trial_streams(1203, MEETING_TRIALS),
                                trial_streams(1203, MEETING_TRIALS, ENVIRONMENT)):
            state = CoupledState(Environment(MEETING_PARAMS, env_rng))
            moves, tau = 0, None
            while moves < MEETING_PARAMS.max_events:
                if stream_step(state, rng) in ("l_group", "r_group"):
                    moves += 1
                    if state.l == state.r:
                        tau = moves
                        break
            taus.append(tau)
        assert_meeting_law(taus, law)


# The law of the meeting count N after MEETING_PARAMS.max_events events,
# from oracles.meeting_count_law, against the compiled trials' meeting
# column, in run_direct_batch's blocks and in simulate's table, and against
# run_direct's logged runs.  Cells N = 0, 1, 2 and N >= COUNT_CAP, each test
# at family-wise level MEETING_ALPHA as above.
COUNT_CAP = 3


class TestMeetingCountLaw:
    @pytest.fixture(scope="class", params=[0.0, 0.5], ids=["delta-0", "delta-0.5"])
    def case(self, request):
        params = params_for(a=1.0, delta=request.param, l0=0, r0=2, max_events=10)
        law = oracles.meeting_count_law(params, params.max_events, COUNT_CAP)
        assert sum(law) == 1
        return params, law

    @pytest.mark.parametrize("stop", [None, 1, 2, 3])
    def test_run_direct_batch(self, case, stop):
        # a run stopped at s meetings reports min(N, s)
        params, law = case
        rows = np.concatenate(list(run_direct_batch(params, 1204, range(MEETING_TRIALS),
                                                    stop_after_meetings=stop)))
        cells = COUNT_CAP if stop is None else stop
        assert stop is None or rows[:, 0].max() <= stop
        assert_meeting_law([k if k < cells else None for k in rows[:, 0].tolist()], law[:cells])

    @pytest.mark.parametrize("stop", [None, 2])
    def test_run_direct(self, case, stop):
        # one logged run per stream (seed, t), at about 35 us a run
        params, law = case
        counts = [run_direct(params, 2, RngStream(1206, t), stop_after_meetings=stop).meetings
                  for t in range(MEETING_TRIALS)]
        cells = COUNT_CAP if stop is None else stop
        assert stop is None or max(counts) <= stop
        assert_meeting_law([k if k < cells else None for k in counts], law[:cells])

    def test_simulate_table(self, case):
        # the table's P(N >= k), read back as the trials with N >= k
        params, law = case
        result = CliRunner().invoke(main, [
            "simulate", "--delta", str(params.delta), "--events", str(params.max_events),
            "--trials", str(MEETING_TRIALS), "--seed", "1205"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.split("\n")
        hits = [MEETING_TRIALS] + [round(float(line.split(",")[1]) * MEETING_TRIALS)
                                   for line in lines[lines.index("k,frequency,stderr") + 1:-1]]
        hits += [0] * COUNT_CAP
        counts = [k for k in range(COUNT_CAP) for _ in range(hits[k] - hits[k + 1])]
        assert_meeting_law(counts + [None] * hits[COUNT_CAP], law[:COUNT_CAP])

    def test_a_pass_past_its_state_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_MEETING_STATES", 100)
        with pytest.raises(ValueError, match="MAX_MEETING_STATES = 100 states at depth 5"):
            oracles.meeting_count_law(MEETING_PARAMS, MEETING_PARAMS.max_events, COUNT_CAP)


class TestWeightAgreement:
    """Along every enumerated branch the urn's effective edge weights must
    equal the reinforced edge weights of the weight dynamics."""

    def co_walk(self, p: ModelParams, horizon: int):
        a = Fraction(p.a)
        delta = Fraction(p.delta)

        def rec(urns, weights, l, r, depth):
            if l == r or depth == 0:
                return
            for mover_idx, left_present in ((0, True), (1, False)):
                v = l if mover_idx == 0 else r
                urn = urns.get(v) or MagicUrn(*initial_masses(p, v, Fraction))
                wl = weights.get(v - 1, a)
                wr = weights.get(v, a) + delta
                eff_l = left_mass(urn, left_present)
                eff_r = total_mass(urn) - eff_l
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


class TestUrnCertificate:
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_equivalence_for_every_a_and_delta_at_horizon_9(self, gap):
        """TV = 0 at horizon 9 on a in {1, 2, 3} x delta in {0, 1/2, 1}
        certifies the urn representation at that horizon for every a >= 1
        and delta >= 0, and every start pair with this gap.

        Premise: both kernels stay ratios of forms of degree <= 1 in
        (a, delta) (``initial_masses``, the edge weights a plus traversals,
        ``direct_kernel``, ``urn_kernel``) and never branch on the values
        of a or delta; their kernels then lie in (0, 1), so
        the joint states reached do not depend on (a, delta).  The
        cross-multiplied difference of the two kernels at a reached state is
        then a polynomial of degree <= 2 in a and <= 2 in delta, and one
        that vanishes on a 3 x 3 grid vanishes identically (Alon,
        "Combinatorial Nullstellensatz", CPC 8, 1999, Lemma 2.1).
        ``initial_masses`` reads only v - l0 and v - r0, so one gap covers
        every start pair with it.  A kernel change that breaks the premise
        must say so here; small a, where a mass can go negative, is outside
        the argument.
        """
        for a in (1.0, 2.0, 3.0):
            for delta in (0.0, 0.5, 1.0):
                assert compare_exact(params_for(a=a, delta=delta, r0=gap), 9).tv_distance == 0


def crossed(s: int, x: int, v: int) -> int:
    """Right crossings minus left crossings of edge [v, v+1] by a walker
    that went from site s to site x: [s <= v < x] - [x <= v < s]."""
    return (s <= v < x) - (x <= v < s)


def net_flows(l0: int, r0: int, v: int, left_present: bool) -> tuple[int, int]:
    """F(v - 1) and F(v), the net flows of both walkers across [v - 1, v]
    and [v, v + 1], with the left (or right) walker at v and the other
    strictly on its own side, as before their meeting."""
    sites = (v, max(v + 1, r0)) if left_present else (min(v - 1, l0), v)
    return tuple(sum(crossed(s, x, u) for s, x in zip((l0, r0), sites)) for u in (v - 1, v))


class TestUrnEquivalenceAtEveryHorizon:
    """The two kernels agree at every state reached before the first
    meeting, so TV = 0 at every horizon, not only at ``TestUrnCertificate``'s 9.

    Net-flow lemma: across edge [v, v+1] a walker's right crossings minus
    its left crossings are ``crossed(start, site, v)``, so with lj and rj
    the jumps from a site by either walker (the counts ``compare_exact``
    keys on), rj(v) - lj(v + 1) = F(v).  The direct kernel at v then reads
    2 lj(v) + F(v - 1) traversals of [v - 1, v] and 2 rj(v) - F(v) of
    [v, v + 1], and before the meeting F(v - 1) and F(v) depend only on
    v's class against l0 and r0 and on which walker stands at v
    (``net_flows``).  The identity test checks, per class and side, that
    ``direct_kernel`` on those traversals is 1 - ``urn_kernel``, the two
    kernels ``compare_exact`` runs.  TV = 0 at depth 0, so by induction
    over the events TV = 0 at every horizon.

    Premise, as in ``TestUrnCertificate``: the kernels read only their
    documented inputs (``initial_masses``, the edge weights a plus
    traversals, ``direct_kernel``, ``urn_kernel``), are ratios of forms of
    degree <= 1 in (a, delta, lj, rj) and never branch on the
    values of a, delta or the counts.  The cross-multiplied difference is
    then of degree <= 2 in each, and one that vanishes on a 3 x 3 x 3 x 3
    grid vanishes identically (Alon, "Combinatorial Nullstellensatz", CPC
    8, 1999, Lemma 2.1).  Scope: a >= 1; below it a mass can go negative.
    """

    @settings(max_examples=100, deadline=None)
    @given(l0=st.integers(-3, 3), gap=st.integers(1, 4),
           moves=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40))
    def test_net_flow_lemma_on_paths_cut_at_the_meeting(self, l0, gap, moves):
        starts = sites = (l0, l0 + gap)
        right, left = {}, {}  # (walker, edge) -> right and left crossings
        jumps = {}  # (site, right) -> jumps from the site by either walker
        for mover, to_right in moves:
            l, r = sites
            for i, v in enumerate(sites):  # before the meeting, per walker at v
                assert net_flows(*starts, v, i == 0) == tuple(
                    sum(right.get((j, u), 0) - left.get((j, u), 0) for j in (0, 1))
                    for u in (v - 1, v))
            v = sites[mover]
            edge, counts = (v, right) if to_right else (v - 1, left)
            counts[mover, edge] = counts.get((mover, edge), 0) + 1
            jumps[v, to_right] = jumps.get((v, to_right), 0) + 1
            moved = v + 1 if to_right else v - 1
            sites = (moved, r) if mover == 0 else (l, moved)
            if sites[0] == sites[1]:
                break
        for u in range(l0 - len(moves) - 1, l0 + gap + len(moves) + 1):
            flows = [right.get((j, u), 0) - left.get((j, u), 0) for j in (0, 1)]
            assert flows == [crossed(s, x, u) for s, x in zip(starts, sites)]
            assert jumps.get((u, True), 0) - jumps.get((u + 1, False), 0) == sum(flows)

    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_direct_kernel_is_the_urn_kernel_per_site_class_and_side(self, gap):
        l0, r0 = -1, gap - 1
        classes, mismatches = set(), []
        for v in range(l0 - 2, r0 + 3):
            for left_present in (True, False):
                before, after = net_flows(l0, r0, v, left_present)
                classes.add(((v > l0) - (v < l0), (v > r0) - (v < r0), left_present))
                # three counts each, from the least that leaves no edge a
                # negative traversal count: 0 unless a flow forces a jump
                lj0, rj0 = max(0, 1 - before) // 2, max(0, after + 1) // 2
                for a, d, lj, rj in product((1, 2, 3), (0, 1, 2), range(lj0, lj0 + 3),
                                            range(rj0, rj0 + 3)):
                    params = ModelParams(a=float(a), delta=d / 2, l0=l0, r0=r0)
                    p_right = urn_process.direct_kernel(params)
                    qn, qd = urn_process.urn_kernel(params)(v, left_present, lj, rj)
                    if p_right(v, 2 * lj + before, 2 * rj - after) != (qd - qn, qd):
                        mismatches.append((v, left_present, a, d / 2, lj, rj))
        assert mismatches == []
        assert len(classes) == (8 if gap == 1 else 10)  # every class on both sides
