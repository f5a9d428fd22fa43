"""Coupled quadruple: sandwich ordering, environment law, marginal checks."""
import json
from itertools import product

import numpy as np
import pytest
from scipy import stats

from dataclasses import astuple

from reinforce_sim import coupling
from reinforce_sim.coupling import (
    SIGNIFICANCE,
    CoupledState,
    Environment,
    SandwichViolationError,
    coupled_step,
    marginal_check,
    run_coupling,
    sample_site_environment,
)
from reinforce_sim.direct import ModelParams
from reinforce_sim.distributions import (
    ENVIRONMENT, BetaParams, RngStream, sample_beta, sample_dirichlet, trial_streams,
)
from reinforce_sim.urn import MagicUrn, Side
from reinforce_sim.urn_process import SmallAPolicyError, initial_masses

from oracles import LargestUniform, free_step_tallies


def params_for(a=1.0, delta=0.0, l0=0, r0=2, **kw):
    return ModelParams(a=a, delta=delta, l0=l0, r0=r0, **kw)


def env_for(params, seed, trial=0):
    """The environment of trial ``trial``, from its own role stream."""
    return Environment(params, RngStream(seed, trial, ENVIRONMENT))


def site_draw(params, v, seed):
    """(q_r, p_l) of site v's environment, drawn from a fresh stream."""
    return sample_site_environment(params, v, RngStream(seed, 0))


def dirichlet_draw(alphas, seed):
    """(pure red, pure blue) fractions of a Dirichlet(alphas) draw from the
    same fresh stream."""
    x, _, z = sample_dirichlet(RngStream(seed, 0), alphas)
    return x, z


def beta_draw(alpha, beta, seed):
    return sample_beta(RngStream(seed, 0), BetaParams(alpha, beta))


class PickGroup:
    """A stream whose every uniform picks clock group k of n."""

    def __init__(self, k, n):
        self.u = (k + 0.5) / n

    def uniform(self):
        return self.u


def set_urn(state, v, urn):
    """Overwrite the masses of the urn at site v in place."""
    target = state.urn_at(v)
    (target.pure_red, target.pure_blue, target.fam_red, target.fam_blue) = astuple(urn)


class TestSiteEnvironment:
    def test_complement_rates(self):
        # a free lP jumps right with probability p_l, a free rP with 1 - q_r
        env = Environment(params_for(a=2.0, delta=0.5), RngStream(80, 0))
        for v in range(-2, 5):
            q_r, p_l = env.at(v)
            assert 0.0 < q_r and 0.0 < p_l and q_r + p_l < 1.0
            for walker, rate in (("lP", p_l), ("rP", 1.0 - q_r)):
                assert env.right_rate(walker, v) == rate
                assert env.free_step(walker, v, np.nextafter(rate, 0.0)) == v + 1
                assert env.free_step(walker, v, rate) == v - 1
                assert env.free_steps[walker, v] == [2, 1]

    def test_simplex_constraint_enforced(self, monkeypatch):
        p = params_for()  # site 1 draws from the simplex, site 0 draws p_l alone
        monkeypatch.setattr(coupling, "sample_dirichlet", lambda rng, alphas: (0.7, -0.4, 0.7))
        with pytest.raises(ValueError, match="off the simplex"):
            sample_site_environment(p, 1, RngStream(80, 0))
        for p_l in (-0.1, 1.5):
            monkeypatch.setattr(coupling, "sample_beta", lambda rng, law: p_l)
            with pytest.raises(ValueError, match="off the simplex"):
                sample_site_environment(p, 0, RngStream(80, 0))


class TestSiteDirichletParams:
    # a site draws Dirichlet(r/2, 1/2, b/2) of its initial masses (r, b)
    def test_interior_site_parameters(self):
        assert initial_masses(params_for(), 1) == (1.0, 1.0)
        for seed in range(20):
            assert site_draw(params_for(), 1, seed) == dirichlet_draw((0.5, 0.5, 0.5), seed)

    def test_degenerate_rows_marked(self):
        # a=1: pure red vanishes at and left of l0, pure blue at and right
        # of r0; the other fraction against the family is Beta(m/2, 1/2)
        p = params_for()
        for seed in range(20):
            for v in (0, -3):
                r, b = initial_masses(p, v)
                assert r == 0.0
                assert site_draw(p, v, seed) == (0.0, beta_draw(b / 2, 0.5, seed))
            for v in (2, 5):
                r, b = initial_masses(p, v)
                assert b == 0.0
                assert site_draw(p, v, seed) == (beta_draw(r / 2, 0.5, seed), 0.0)

    def test_drift_shifts_blue_parameter(self):
        p = params_for(a=2.0, delta=0.5)
        assert initial_masses(p, 1) == (2.0, 2.5)
        for seed in range(20):
            assert site_draw(p, 1, seed) == dirichlet_draw((1.0, 0.5, 1.25), seed)


class TestSampleSiteEnvironment:
    def test_degenerate_components_exactly_zero(self):
        rng = RngStream(81, 0)
        p = params_for()
        for _ in range(100):
            q_r, p_l = sample_site_environment(p, 0, rng)
            assert q_r == 0.0
            assert 0.0 < p_l < 1.0
            q_r, p_l = sample_site_environment(p, 2, rng)
            assert p_l == 0.0

    def test_marginal_laws_per_site_class(self):
        # p_l ~ Beta(B0/2, (R0+1)/2) and q_r ~ Beta(R0/2, (B0+1)/2)
        p = params_for(a=2.0, delta=0.5)
        rng = RngStream(82, 0)
        n = 10_000
        for v in (-1, 0, 1, 2, 3):
            draws = np.array([sample_site_environment(p, v, rng) for _ in range(n)])
            r0m, b0m = initial_masses(p, v)
            for col, (alpha, beta) in (
                (0, (r0m / 2, (b0m + 1) / 2)),
                (1, (b0m / 2, (r0m + 1) / 2)),
            ):
                if alpha <= 0:
                    assert (draws[:, col] == 0.0).all()
                else:
                    ks = stats.kstest(draws[:, col], stats.beta(alpha, beta).cdf).statistic
                    assert ks < 0.02

    def test_small_a_policy_enforced(self):
        # checked once, when the environment that samples the sites is built
        with pytest.raises(SmallAPolicyError):
            Environment(params_for(a=0.5), RngStream(83, 0))


class TestEnvironment:
    def test_memoized_per_site(self):
        env = Environment(params_for(), RngStream(84, 0))
        assert env.at(1) is env.at(1)


class TestCoupledStep:
    def test_initial_state_is_degenerate_sandwich(self):
        state = CoupledState(env_for(params_for(), 85, 0))
        assert (state.lP, state.l, state.r, state.rP) == (0, 0, 2, 2)
        state.check_sandwich()

    def test_step_past_meeting_rejected(self):
        state = CoupledState(env_for(params_for(), 86, 0))
        for l, r in ((1, 1), (2, 1)):  # met, crossed
            state.l, state.r = l, r
            with pytest.raises(SandwichViolationError):
                coupled_step(state, RngStream(86, 1))

    def test_coincident_chameleon_moves_pair_together(self):
        # urn with only the chameleon marble: the coincident pair must
        # always jump together toward its side
        p = params_for(r0=4)
        rng = RngStream(87, 0)
        for _ in range(300):
            state = CoupledState(env_for(p, 87, 1))
            set_urn(state, 0, MagicUrn(0.0, 0.0))
            set_urn(state, 4, MagicUrn(0.0, 0.0))
            g = coupled_step(state, rng)
            if g == "l_group":
                assert (state.lP, state.l) == (-1, -1)
            elif g == "r_group":
                assert (state.r, state.rP) == (5, 5)

    def test_coincident_family_blue_splits_pair(self):
        # overwhelming family-blue mass: l jumps right while its outer
        # walker, seeing a red-pool draw never, still goes left unless
        # the marble is pure blue
        p = params_for(r0=4)
        rng = RngStream(88, 0)
        seen_split = False
        for _ in range(300):
            state = CoupledState(env_for(p, 88, 1))
            set_urn(state, 0, MagicUrn(0.0, 0.0, fam_blue=1e9))
            g = coupled_step(state, rng)
            if g == "l_group" and state.l == 1:
                assert state.lP == -1  # family blue is not pure blue
                seen_split = True
        assert seen_split

    def test_coincident_pure_blue_moves_pair_right(self):
        p = params_for(r0=4)
        rng = RngStream(89, 0)
        seen = False
        for _ in range(300):
            state = CoupledState(env_for(p, 89, 1))
            set_urn(state, 0, MagicUrn(0.0, 1e9))
            g = coupled_step(state, rng)
            if g == "l_group":
                assert (state.lP, state.l) == (1, 1)
                seen = True
        assert seen

    @pytest.mark.parametrize("lP,rP", [(0, 4), (0, 7), (-3, 4), (-3, 7)])
    def test_largest_uniform_picks_the_last_active_group(self, lP, rP):
        p = params_for(r0=4)
        state = CoupledState(env_for(p, 90, 1))
        state.lP, state.rP = lP, rP
        last = coupling._GROUPS[lP == 0, rP == 4][-1]
        assert coupled_step(state, LargestUniform()) == last

    def test_every_transition_keeps_the_order(self, monkeypatch):
        # The sandwich order by induction, for every seed, budget and
        # parameter.  An event moves one clock group: one walker by one
        # site, or a coincident outer/inner pair, whose gap goes from 0 to
        # 0 or 2.  So a nonzero gap moves by at most 1, and whether
        # lP <= l <= r <= rP holds after an event depends only on the gaps
        # l - lP, r - l and rP - r, each capped at 2 (an inner gap of 0 is
        # the meeting, where a run stops).  From every capped triple, each
        # active group is driven with every outcome of its draw: the four
        # (direction, pure) results of magic_draw, a free step either way.
        outcome = {}
        monkeypatch.setattr(coupling, "magic_draw", lambda urn, side, rng: outcome["draw"])
        monkeypatch.setattr(Environment, "free_step",
                            lambda self, walker, v, u: v + outcome["step"])
        draws = [(side, pure) for side in Side for pure in (False, True)]
        env = env_for(params_for(), 91)
        for gaps in product((0, 1, 2), (1, 2), (0, 1, 2)):
            free = {"lP": gaps[0] > 0, "rP": gaps[2] > 0}
            active = {"l_group", "r_group"} | {w for w, is_free in free.items() if is_free}
            moved = set()
            for k, draw, step in product(range(len(active)), draws, (-1, 1)):
                outcome.update(draw=draw, step=step)
                state = CoupledState(env)
                state.lP = 0
                state.l = gaps[0]
                state.r = state.l + gaps[1]
                state.rP = state.r + gaps[2]
                moved.add(coupled_step(state, PickGroup(k, len(active))))
                after = (state.l - state.lP, state.r - state.l, state.rP - state.r)
                assert min(after) >= 0, (gaps, draw, step)
                assert all(g == 0 or abs(a - g) <= 1 for g, a in zip(gaps, after))
            assert moved == active

    def test_free_walker_clock_groups(self):
        p = params_for(r0=4)
        rng = RngStream(90, 0)
        state = CoupledState(env_for(p, 90, 1))
        state.lP = -3  # free both outer walkers
        state.rP = 7
        groups = set()
        for _ in range(200):
            if state.l >= state.r:
                break
            groups.add(coupled_step(state, rng))
        assert {"l_group", "r_group"} <= groups


class TestRunCoupling:
    def test_no_violations_and_ordering_summary(self):
        p = params_for(max_events=2000)
        for t in range(100):
            res = run_coupling(RngStream(91, t), env_for(p, 91, t))
            assert res.violations == 0
            assert res.max_gap >= 2
            if res.tau1_event is not None:
                assert res.tau1_event <= res.events_executed

    def test_coincident_start_summary(self):
        p = params_for(l0=1, r0=1, max_events=100)
        res = run_coupling(RngStream(92, 0), env_for(p, 92))
        assert (res.violations, res.tau1_event, res.events_executed) == (0, 0, 0)

    def test_json_summary_schema(self):
        p = params_for(max_events=500)
        res = run_coupling(RngStream(93, 0), env_for(p, 93))
        row = json.loads(res.to_json())
        assert set(row) == {
            "violations", "tau1_event", "max_rP_minus_lP", "events", "seed", "stream_id",
        }
        assert row["violations"] == 0

    def test_shared_environment_reuse(self):
        p = params_for(max_events=500)
        env = Environment(p, RngStream(94, 0))
        r1 = run_coupling(RngStream(94, 1), env)
        r2 = run_coupling(RngStream(94, 2), env)
        assert r1.violations == r2.violations == 0

    def test_budget_and_start_sites_come_from_the_environment(self, monkeypatch):
        p = params_for(l0=-2, r0=4, max_events=5)  # gap 6: no meeting within 5 events
        starts, step = [], coupling.coupled_step

        def recording(state, rng):
            starts.append((state.lP, state.l, state.r, state.rP))
            return step(state, rng)
        monkeypatch.setattr(coupling, "coupled_step", recording)
        res = run_coupling(RngStream(99, 0), env_for(p, 99))
        assert starts[0] == (-2, -2, 4, 4) and len(starts) == 5
        assert (res.violations, res.tau1_event, res.events_executed) == (0, None, 5)
        assert res.max_gap >= 6


# (model parameters, seed) of the fixed-environment checks
MARGINAL_SETTINGS = [({}, 95), ({"a": 2.0, "delta": 0.5, "r0": 3}, 96)]


class TestMarginalCheck:
    def test_free_walkers_follow_environment(self):
        p = params_for(max_events=2000)
        report = marginal_check(p, trials=300, seed=95)
        assert report.passed
        assert report.trials == 300
        assert len(report.checks) > 0
        for c in report.checks:
            assert c.visits >= 20
            assert 0 <= c.right_jumps <= c.visits

    def test_degenerate_sites_are_exact(self):
        # a=1: site l0 has p_l frozen at 0, so a free left outer walker
        # there never jumps right
        p = params_for(max_events=2000)
        report = marginal_check(p, trials=300, seed=96)
        for c in report.checks:
            if c.walker == "lP" and c.expected_right == 0.0:
                assert c.right_jumps == 0

    @pytest.mark.parametrize("kw,seed", MARGINAL_SETTINGS)
    def test_report_equals_freshly_built_streams(self, monkeypatch, kw, seed):
        p = params_for(max_events=2000, **kw)
        rekeyed = marginal_check(p, trials=200, seed=seed).to_json()
        monkeypatch.setattr(coupling, "trial_streams", lambda s, trials, role=None: (
            RngStream(s, t, role) for t in range(trials)))
        assert marginal_check(p, trials=200, seed=seed).to_json() == rekeyed

    @pytest.mark.parametrize("kw,seed", MARGINAL_SETTINGS)
    def test_free_steps_equal_the_reference_tally(self, kw, seed):
        p = params_for(max_events=2000, **kw)
        env = env_for(p, seed)
        for rng in trial_streams(seed, 200):
            run_coupling(rng, env)
        assert env.free_steps == free_step_tallies(p, seed, 200)

    def test_a_violating_run_fails_the_check(self, monkeypatch):
        # one run breaks the order midway; the other runs' tallies pass
        # their tests, so only the violation can fail the check
        calls, step = [], coupling.coupled_step

        def breaks_once(state, rng):
            calls.append(None)
            if len(calls) == 5000:
                raise SandwichViolationError("injected")
            return step(state, rng)
        monkeypatch.setattr(coupling, "coupled_step", breaks_once)
        report = marginal_check(params_for(max_events=2000), trials=300, seed=95)
        assert len(calls) > 5000 and report.checks
        assert all(c.p_value >= SIGNIFICANCE / len(report.checks) for c in report.checks)
        assert not report.passed

    def test_json_schema(self):
        p = params_for(max_events=500)
        report = marginal_check(p, trials=50, seed=97)
        data = json.loads(report.to_json())
        assert set(data) == {"trials", "significance", "excluded_sites", "passed", "checks"}

    def test_cross_trial_independence_of_free_walkers(self):
        # with a fixed environment and both outer walkers detached, their
        # per-trial right-jump frequencies should be uncorrelated
        p = params_for(r0=10)
        env = Environment(p, RngStream(98, 0))
        lex, rex = [], []
        for t in range(300):
            rng = RngStream(98, 100 + t)
            state = CoupledState(env)
            state.lP = -15
            state.rP = 25
            lc = lr = rc = rr = 0
            for _ in range(400):
                if state.l >= state.r:
                    break
                lP, rP = state.lP, state.rP
                g = coupled_step(state, rng)
                if g == "lP":
                    lc += 1
                    lr += state.lP == lP + 1
                elif g == "rP":
                    rc += 1
                    rr += state.rP == rP + 1
            if lc >= 20 and rc >= 20:
                lex.append(lr / lc)
                rex.append(rr / rc)
        n = len(lex)
        assert n >= 100
        corr = np.corrcoef(lex, rex)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)
