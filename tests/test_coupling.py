"""Coupled quadruple: sandwich ordering, environment law, marginal checks."""
import json

import numpy as np
import pytest
from scipy import stats

from dataclasses import astuple

from reinforce_sim import coupling
from reinforce_sim.coupling import (
    CouplingRunResult,
    Environment,
    SandwichViolationError,
    SiteEnvironment,
    coupled_step,
    init_coupled_state,
    marginal_check,
    run_coupling,
    sample_site_environment,
)
from reinforce_sim.direct import ModelParams
from reinforce_sim.distributions import (
    ENVIRONMENT, BetaParams, RngStream, sample_beta, sample_dirichlet,
)
from reinforce_sim.urn import MagicUrn
from reinforce_sim.urn_process import SmallAPolicyError, initial_masses


def params_for(a=1.0, delta=0.0, l0=0, r0=2, **kw):
    return ModelParams(a=a, delta=delta, l0=l0, r0=r0, **kw)


def env_for(params, seed, trial=0):
    """The environment of trial ``trial``, from its own role stream."""
    return Environment(params, RngStream(seed, trial, ENVIRONMENT))


def site_draw(params, v, seed):
    """(q_r, p_l) of site v's environment, drawn from a fresh stream."""
    se = sample_site_environment(params, v, RngStream(seed, 0))
    return se.q_r_polya, se.p_l_polya


def dirichlet_draw(alphas, seed):
    """(pure red, pure blue) fractions of a Dirichlet(alphas) draw from the
    same fresh stream."""
    x, _, z = sample_dirichlet(RngStream(seed, 0), alphas)
    return x, z


def beta_draw(alpha, beta, seed):
    return sample_beta(RngStream(seed, 0), BetaParams(alpha, beta))


def set_urn(state, v, urn):
    """Overwrite the masses of the urn at site v in place."""
    target = state.field.urn_at(v)
    (target.pure_red, target.pure_blue, target.fam_red, target.fam_blue) = astuple(urn)


class TestSiteEnvironment:
    def test_complement_rates(self):
        se = SiteEnvironment(q_r_polya=0.25, p_l_polya=0.5)
        assert se.p_r_polya == 0.75

    def test_simplex_constraint_enforced(self):
        with pytest.raises(ValueError):
            SiteEnvironment(q_r_polya=0.7, p_l_polya=0.7)
        with pytest.raises(ValueError):
            SiteEnvironment(q_r_polya=-0.1, p_l_polya=0.5)


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
            se = sample_site_environment(p, 0, rng)
            assert se.q_r_polya == 0.0
            assert 0.0 < se.p_l_polya < 1.0
            se = sample_site_environment(p, 2, rng)
            assert se.p_l_polya == 0.0

    def test_marginal_laws_per_site_class(self):
        # p_l ~ Beta(B0/2, (R0+1)/2) and q_r ~ Beta(R0/2, (B0+1)/2)
        p = params_for(a=2.0, delta=0.5)
        rng = RngStream(82, 0)
        n = 10_000
        for v in (-1, 0, 1, 2, 3):
            draws = np.array(
                [
                    (lambda se: (se.q_r_polya, se.p_l_polya))(
                        sample_site_environment(p, v, rng)
                    )
                    for _ in range(n)
                ]
            )
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
        state = init_coupled_state(params_for(), env_for(params_for(), 85, 0))
        assert (state.lP, state.l, state.r, state.rP) == (0, 0, 2, 2)
        state.check_sandwich()

    def test_step_past_meeting_rejected(self):
        state = init_coupled_state(params_for(), env_for(params_for(), 86, 0))
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
            state = init_coupled_state(p, env_for(p, 87, 1))
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
            state = init_coupled_state(p, env_for(p, 88, 1))
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
            state = init_coupled_state(p, env_for(p, 89, 1))
            set_urn(state, 0, MagicUrn(0.0, 1e9))
            g = coupled_step(state, rng)
            if g == "l_group":
                assert (state.lP, state.l) == (1, 1)
                seen = True
        assert seen

    def test_free_walker_clock_groups(self):
        p = params_for(r0=4)
        rng = RngStream(90, 0)
        state = init_coupled_state(p, env_for(p, 90, 1))
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
            res = run_coupling(p, RngStream(91, t), env_for(p, 91, t))
            assert res.violations == 0
            assert res.max_gap >= 2
            if res.tau1_event is not None:
                assert res.tau1_event <= res.events_executed

    def test_coincident_start_summary(self):
        p = params_for(l0=1, r0=1, max_events=100)
        res = run_coupling(p, RngStream(92, 0), env_for(p, 92))
        assert (res.violations, res.tau1_event, res.events_executed) == (0, 0, 0)

    def test_json_summary_schema(self):
        p = params_for(max_events=500)
        res = run_coupling(p, RngStream(93, 0), env_for(p, 93))
        row = json.loads(res.to_json())
        assert set(row) == {
            "violations", "tau1_event", "max_rP_minus_lP", "events", "seed", "stream_id",
        }
        assert row["violations"] == 0

    def test_shared_environment_reuse(self):
        p = params_for(max_events=500)
        env = Environment(p, RngStream(94, 0))
        r1 = run_coupling(p, RngStream(94, 1), env)
        r2 = run_coupling(p, RngStream(94, 2), env)
        assert r1.violations == r2.violations == 0


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

    @pytest.mark.parametrize("kw,seed", [({}, 95), ({"a": 2.0, "delta": 0.5, "r0": 3}, 96)])
    def test_report_equals_freshly_built_streams(self, monkeypatch, kw, seed):
        p = params_for(max_events=2000, **kw)
        rekeyed = marginal_check(p, trials=200, seed=seed).to_json()
        monkeypatch.setattr(coupling, "trial_streams", lambda s, trials, role=None: (
            RngStream(s, t, role) for t in range(trials)))
        assert marginal_check(p, trials=200, seed=seed).to_json() == rekeyed

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
            state = init_coupled_state(p, env)
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
