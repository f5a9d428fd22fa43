"""Birth-death chains in random environment: criteria and simulators."""
import warnings

import numpy as np
import pytest

from reinforce_sim import rwre
from reinforce_sim.distributions import BetaParams, RngStream
from reinforce_sim.rwre import Classification, criterion, difference_recurrence, first_returns

from oracles import BDEnvironment, beta_samples, scalar_first_returns


def simulate_bd(env: BDEnvironment, start: int, max_events: int, rng) -> int:
    """Final position of an embedded-chain birth-death walk in ``env``."""
    pos = start
    for _ in range(max_events):
        pos = pos + 1 if rng.uniform() < env.p(pos) else pos - 1
    return pos


class TestCriterion:
    def test_symmetric_environment_is_recurrent(self):
        res = criterion(BetaParams(1.0, 1.0))
        assert res.classification is Classification.RECURRENT
        assert res.log_odds_mean == pytest.approx(0.0, abs=1e-12)
        assert res.mu == pytest.approx(0.0, abs=1e-12)

    def test_right_heavy_environment(self):
        res = criterion(BetaParams(2.0, 1.0))
        assert res.classification is Classification.TRANSIENT_RIGHT
        assert res.log_odds_mean == pytest.approx(1.0, abs=1e-12)  # psi(2) - psi(1)
        assert res.mean_inverse_odds == pytest.approx(1.0)
        assert not res.finite_mean_return  # E[(1-p)/p] = 1, not < 1

    def test_left_heavy_environment(self):
        res = criterion(BetaParams(1.0, 2.0))
        assert res.classification is Classification.TRANSIENT_LEFT
        assert res.mu == pytest.approx(1.0, abs=1e-12)

    def test_classification_is_the_exact_order_of_the_shapes(self):
        # the float digamma difference rounds to 0 when the shapes are one
        # ulp apart; the order of the shapes does not
        for alpha in (0.5, 1.0, 7.0, 12.5, 100.0):
            for beta, cls in ((np.nextafter(alpha, np.inf), Classification.TRANSIENT_LEFT),
                              (alpha, Classification.RECURRENT),
                              (np.nextafter(alpha, 0), Classification.TRANSIENT_RIGHT)):
                assert criterion(BetaParams(alpha, beta)).classification is cls
        near = 1.0000000000001
        assert criterion(BetaParams(1.0, near)).classification is Classification.TRANSIENT_LEFT
        assert criterion(BetaParams(near, 1.0)).classification is Classification.TRANSIENT_RIGHT

    def test_infinite_inverse_odds_marked_none(self):
        res = criterion(BetaParams(1.0, 0.5))
        assert res.mean_inverse_odds is None
        assert not res.finite_mean_return

    def test_finite_mean_return_threshold(self):
        # E[(1-p)/p] = beta/(alpha-1) < 1 iff alpha > 1 + beta
        assert criterion(BetaParams(3.0, 0.5)).finite_mean_return
        assert criterion(BetaParams(3.0, 2.5)).finite_mean_return is False
        assert criterion(BetaParams(1.4, 0.5)).finite_mean_return is False

    def test_monte_carlo_log_odds_agreement(self):
        p = BetaParams(2.0, 1.0)
        xs = beta_samples(RngStream(112, 0), p, 100_000)
        mc = np.mean(np.log(xs / (1.0 - xs)))
        assert abs(mc - criterion(p).log_odds_mean) < 0.01

    def test_monte_carlo_inverse_odds_agreement(self):
        p = BetaParams(2.5, 0.5)
        xs = beta_samples(RngStream(102, 0), p, 100_000)
        mc = np.mean((1.0 - xs) / xs)
        target = criterion(p).mean_inverse_odds
        assert target == pytest.approx(1.0 / 3.0)
        assert abs(mc - target) / target < 0.02

    def test_to_dict_round_trip(self):
        d = criterion(BetaParams(2.0, 1.0)).to_dict()
        assert d["classification"] == "transient_right"
        assert d["alpha"] == 2.0 and d["beta"] == 1.0


class TestBDEnvironment:
    def test_overrides_win(self):
        env = BDEnvironment(BetaParams(1.0, 1.0), RngStream(103, 1), overrides={0: 1.0})
        assert env.p(0) == 1.0
        assert env.p(1) < 1.0

    def test_sampled_sites_memoized(self):
        env = BDEnvironment(sampler=BetaParams(1.0, 1.0), rng=RngStream(103, 0))
        assert env.p(4) == env.p(4)

    def test_validation(self):
        rng = RngStream(104, 0)
        with pytest.raises(ValueError):
            BDEnvironment(BetaParams(1.0, 1.0), rng, overrides={0: -0.1})
        with pytest.raises(ValueError):
            BDEnvironment(BetaParams(1.0, 1.0), rng, overrides={3: 1.5})


class TestSimulateBd:
    def test_drift_sign_matches_criterion(self):
        n_trials, n_events = 200, 1000
        for alpha, beta in ((1.0, 0.5), (0.5, 1.0)):
            res = criterion(BetaParams(alpha, beta))
            finals = []
            for t in range(n_trials):
                rng = RngStream(106, 1000 * int(alpha * 2) + t)
                env = BDEnvironment(sampler=BetaParams(alpha, beta), rng=rng)
                finals.append(simulate_bd(env, 0, n_events, rng))
            mean = np.mean(finals)
            if res.classification is Classification.TRANSIENT_RIGHT:
                assert mean > 0
            else:
                assert mean < 0

    def test_balanced_environment_centered(self):
        finals = []
        for t in range(300):
            rng = RngStream(107, t)
            env = BDEnvironment(sampler=BetaParams(1.0, 1.0), rng=rng)
            finals.append(simulate_bd(env, 0, 400, rng))
        se = np.std(finals, ddof=1) / np.sqrt(len(finals))
        assert abs(np.mean(finals)) < 3 * se + 1e-9


class TestDifferenceRecurrence:
    def test_curve_is_monotone_with_errors(self):
        p = BetaParams(0.5, 1.5)  # mu > 0
        curve = difference_recurrence(p, p, [100, 400, 1600], 200, 108)
        assert curve.regime_ok
        assert curve.budgets == [100, 400, 1600]
        assert all(
            f1 <= f2 for f1, f2 in zip(curve.hit_fractions, curve.hit_fractions[1:])
        )
        assert all(0.0 <= f <= 1.0 for f in curve.hit_fractions)
        assert len(curve.stderrs) == 3
        assert curve.rows()[0]["budget"] == 100

    def test_outside_regime_is_reported_by_regime_ok(self):
        p = BetaParams(2.0, 1.0)  # mu < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = difference_recurrence(p, p, [50], 20, 109)
        assert not curve.regime_ok

    def test_regime_sign_matches_the_digamma_criterion(self):
        # away from one-ulp gaps the sign beta > alpha and the float digamma
        # agree; the grid's closest shapes are 1e-12 apart relatively
        shapes = [0.05, 0.5, 1.0, 1.0 + 1e-12, 2.0, 7.0 * (1 - 1e-12), 7.0, 40.0]
        for p in (BetaParams(a, b) for a in shapes for b in shapes):
            curve = difference_recurrence(p, p, [1], 1, 111)
            assert curve.regime_ok == (criterion(p).mu > 0)
        # regime_ok needs both chains in the regime
        ok, bad = BetaParams(0.5, 2.0), BetaParams(2.0, 0.5)
        assert not difference_recurrence(ok, bad, [1], 1, 111).regime_ok
        assert not difference_recurrence(bad, ok, [1], 1, 111).regime_ok

    def test_regime_sign_is_exact_at_one_ulp(self):
        # at 7, 12.5 and 100 the float digamma rounds mu at beta one ulp
        # above alpha to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.5, 7.0, 12.5, 100.0):
                above = BetaParams(alpha, np.nextafter(alpha, np.inf))
                assert difference_recurrence(above, above, [1], 1, 112).regime_ok
                for beta in (alpha, np.nextafter(alpha, 0)):
                    p = BetaParams(alpha, beta)
                    assert not difference_recurrence(p, p, [1], 1, 112).regime_ok

    def test_invalid_inputs_rejected(self):
        p = BetaParams(0.5, 1.5)
        with pytest.raises(ValueError):
            difference_recurrence(p, p, [], 10, 110)
        with pytest.raises(ValueError):
            difference_recurrence(p, p, [0], 10, 110)
        with pytest.raises(ValueError):
            difference_recurrence(p, p, [10], 0, 110)

    # (p1, p2, trials): the pilot's environments, chain one outside the
    # regime (mu < 0, it drifts away and many trials hit the budget), and
    # two different environments
    ORACLE_GRID = [
        (BetaParams(0.5, 1.5), BetaParams(0.5, 1.5), 300),
        (BetaParams(1.5, 0.5), BetaParams(0.5, 1.5), 40),
        (BetaParams(1.0, 1.0), BetaParams(2.0, 5.0), 300),
    ]

    @pytest.mark.parametrize("p1,p2,trials", ORACLE_GRID, ids=["pilot", "outside", "mixed"])
    def test_first_returns_equal_the_scalar_oracle(self, monkeypatch, p1, p2, trials):
        # budgets below, at and above the first read of 16 uniforms (8
        # events), and one long enough to reach the largest reads; the
        # read sizes must not show in the result
        for budget in (1, 2, 8, 9, 15, 16, 17, 10_000):
            expected = scalar_first_returns(p1, p2, budget, trials, 113)
            for first_chunk in (1, 16, 1024):
                monkeypatch.setattr(rwre, "_FIRST_CHUNK", first_chunk)
                assert first_returns(p1, p2, budget, trials, 113) == expected

    def test_deterministic_reduction_oracle(self):
        # an independent re-implementation of both chains must produce the
        # same hit fractions from the same keyed streams: a chain meets its
        # sites in the order 1, 2, ..., so the k-th draw of its environment
        # stream is site k's, and site 0 reflects
        p = BetaParams(0.5, 1.5)
        budgets = [50, 200, 800]
        trials = 150
        curve = difference_recurrence(p, p, budgets, trials, 111)

        from reinforce_sim.distributions import ENVIRONMENT, MIRROR_ENVIRONMENT, sample_beta

        firsts = []
        for trial in range(trials):
            rng = RngStream(111, trial)
            env_rngs = (RngStream(111, trial, ENVIRONMENT),
                        RngStream(111, trial, MIRROR_ENVIRONMENT))
            envs = ([], [])
            z = [0, 0]  # distances of chain one and chain two from the origin
            first = None
            for e in range(1, budgets[-1] + 1):
                chain = 0 if rng.uniform() < 0.5 else 1
                u = rng.uniform()
                k = z[chain]
                if k == 0:
                    z[chain] = 1
                else:
                    while len(envs[chain]) < k:
                        envs[chain].append(sample_beta(env_rngs[chain], p))
                    z[chain] = k + 1 if u < envs[chain][k - 1] else k - 1
                if z == [0, 0]:
                    first = e
                    break
            firsts.append(first)
        for b, frac in zip(curve.budgets, curve.hit_fractions):
            mine = sum(1 for f in firsts if f is not None and f <= b) / trials
            assert frac == mine
