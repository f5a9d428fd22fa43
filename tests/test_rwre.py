"""Birth-death chains in random environment: criteria and simulators."""
import re
import warnings

import numpy as np
import pytest

from reinforce_sim import native
from reinforce_sim.distributions import (
    ENVIRONMENT, MIRROR_ENVIRONMENT, BetaParams, RngStream, sample_beta,
)
from reinforce_sim.rwre import (
    RECURRENT, TRANSIENT_LEFT, TRANSIENT_RIGHT, criterion, difference_recurrence, first_returns,
)

from oracles import BDEnvironment, beta_samples, scalar_first_returns


def simulate_bd(env: BDEnvironment, start: int, max_events: int, rng) -> int:
    """Final position of an embedded-chain birth-death walk in ``env``."""
    pos = start
    for _ in range(max_events):
        pos = pos + 1 if rng.gen.random() < env.p(pos) else pos - 1
    return pos


class TestCriterion:
    def test_symmetric_environment_is_recurrent(self):
        res = criterion(BetaParams(1.0, 1.0))
        assert res["classification"] == RECURRENT
        assert res["log_odds_mean"] == pytest.approx(0.0, abs=1e-12)
        assert res["mu"] == pytest.approx(0.0, abs=1e-12)

    def test_right_heavy_environment(self):
        res = criterion(BetaParams(2.0, 1.0))
        assert res["classification"] == TRANSIENT_RIGHT
        assert res["log_odds_mean"] == pytest.approx(1.0, abs=1e-12)  # psi(2) - psi(1)
        assert res["mean_inverse_odds"] == pytest.approx(1.0)
        assert not res["finite_mean_return"]  # E[(1-p)/p] = 1, not < 1

    def test_left_heavy_environment(self):
        res = criterion(BetaParams(1.0, 2.0))
        assert res["classification"] == TRANSIENT_LEFT
        assert res["mu"] == pytest.approx(1.0, abs=1e-12)

    def test_classification_is_the_exact_order_of_the_shapes(self):
        # the float digamma difference rounds to 0 when the shapes are one
        # ulp apart; the order of the shapes does not
        for alpha in (0.5, 1.0, 7.0, 12.5, 100.0):
            for beta, cls in ((np.nextafter(alpha, np.inf), TRANSIENT_LEFT),
                              (alpha, RECURRENT),
                              (np.nextafter(alpha, 0), TRANSIENT_RIGHT)):
                assert criterion(BetaParams(alpha, beta))["classification"] == cls
        near = 1.0000000000001
        assert criterion(BetaParams(1.0, near))["classification"] == TRANSIENT_LEFT
        assert criterion(BetaParams(near, 1.0))["classification"] == TRANSIENT_RIGHT

    def test_infinite_inverse_odds_marked_none(self):
        res = criterion(BetaParams(1.0, 0.5))
        assert res["mean_inverse_odds"] is None
        assert not res["finite_mean_return"]

    def test_finite_mean_return_threshold(self):
        # E[(1-p)/p] = beta/(alpha-1) < 1 iff alpha > 1 + beta
        assert criterion(BetaParams(3.0, 0.5))["finite_mean_return"]
        assert criterion(BetaParams(3.0, 2.5))["finite_mean_return"] is False
        assert criterion(BetaParams(1.4, 0.5))["finite_mean_return"] is False

    def test_monte_carlo_log_odds_agreement(self):
        p = BetaParams(2.0, 1.0)
        xs = beta_samples(RngStream(112, 0), p, 100_000)
        mc = np.mean(np.log(xs / (1.0 - xs)))
        assert abs(mc - criterion(p)["log_odds_mean"]) < 0.01

    def test_monte_carlo_inverse_odds_agreement(self):
        p = BetaParams(2.5, 0.5)
        xs = beta_samples(RngStream(102, 0), p, 100_000)
        mc = np.mean((1.0 - xs) / xs)
        target = criterion(p)["mean_inverse_odds"]
        assert target == pytest.approx(1.0 / 3.0)
        assert abs(mc - target) / target < 0.02

    def test_row_keys(self):
        d = criterion(BetaParams(2.0, 1.0))
        assert sorted(d) == ["alpha", "beta", "classification", "finite_mean_return",
                             "log_odds_mean", "mean_inverse_odds", "mu"]
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
            if res["classification"] == TRANSIENT_RIGHT:
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
        assert curve.rows()[0][0] == (100,)

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
            assert curve.regime_ok == (criterion(p)["mu"] > 0)
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
    # regime (mu < 0, it drifts away and many trials hit the budget), two
    # different environments, and shapes so small that about a fifth of the
    # Beta draws take the x + y == 0 retry
    ORACLE_GRID = [
        (BetaParams(0.5, 1.5), BetaParams(0.5, 1.5), 300),
        (BetaParams(1.5, 0.5), BetaParams(0.5, 1.5), 40),
        (BetaParams(1.0, 1.0), BetaParams(2.0, 5.0), 300),
        (BetaParams(1e-3, 1e-3), BetaParams(1e-3, 2e-3), 60),
    ]

    @pytest.mark.parametrize("p1,p2,trials", ORACLE_GRID,
                             ids=["pilot", "outside", "mixed", "tiny-shapes"])
    def test_first_returns_equal_the_scalar_oracle(self, p1, p2, trials):
        for budget in (1, 2, 8, 9, 15, 16, 17, 10_000):
            expected = scalar_first_returns(p1, p2, budget, trials, 113)
            assert first_returns(p1, p2, budget, trials, 113).tolist() == expected

    def test_tiny_shapes_take_the_retry(self):
        # the case above reaches the retry: both gamma draws underflow to 0
        rng = RngStream(113, 0, ENVIRONMENT)
        x, y = rng.gen.gamma(1e-3, size=10_000), rng.gen.gamma(1e-3, size=10_000)
        assert 0.1 < np.mean(x + y == 0) < 0.3

    def test_each_chain_draws_the_oracles_sites_past_its_first_array(self):
        # the outside case reaches over a thousand sites on chain one, so its
        # array of site probabilities doubles several times
        p1, p2, trials = self.ORACLE_GRID[1]
        first_sites = int(re.search(r"#define FIRST_SITES (\d+)",
                                    native._SOURCE.read_text()).group(1))
        expected = []
        firsts = scalar_first_returns(p1, p2, 10_000, trials, 113, expected)
        got = kernel_sites(p1, p2, 10_000, trials, 113)
        assert got == list(zip(firsts, expected))
        assert max(one for one, _ in expected) > 8 * first_sites

    @pytest.mark.parametrize("budget", [2**63 - 1, 2**63, 2**64 + 5])
    def test_budgets_past_int64_run_every_trial_to_its_return(self, budget):
        # chains that return fast: every trial returns, none is cut
        p = BetaParams(1.0, 30.0)
        got = first_returns(p, p, budget, 200, 114).tolist()
        assert got == scalar_first_returns(p, p, budget, 200, 114)
        assert 0 not in got

    def test_trials_past_2_64_wrap_to_trial_0(self):
        # the kernel's trial t0 + i is counter word 2, taken mod 2**64 as
        # RngStream masks it
        p = BetaParams(0.5, 1.5)
        wrapped, head = np.empty(4, np.int64), np.empty(3, np.int64)
        assert kernel_first_returns(p, p, 10_000, 115, 2**64 - 1, wrapped) == 0
        assert kernel_first_returns(p, p, 10_000, 115, 0, head) == 0
        assert wrapped[1:].tolist() == head.tolist()
        assert head.tolist() == scalar_first_returns(p, p, 10_000, 3, 115)

    def test_deterministic_reduction_oracle(self):
        # an independent re-implementation of both chains must produce the
        # same hit fractions from the same keyed streams: a chain meets its
        # sites in the order 1, 2, ..., so the k-th draw of its environment
        # stream is site k's, and site 0 reflects
        p = BetaParams(0.5, 1.5)
        budgets = [50, 200, 800]
        trials = 150
        curve = difference_recurrence(p, p, budgets, trials, 111)

        firsts = []
        for trial in range(trials):
            rng = RngStream(111, trial)
            env_rngs = (RngStream(111, trial, ENVIRONMENT),
                        RngStream(111, trial, MIRROR_ENVIRONMENT))
            envs = ([], [])
            z = [0, 0]  # distances of chain one and chain two from the origin
            first = None
            for e in range(1, budgets[-1] + 1):
                chain = 0 if rng.gen.random() < 0.5 else 1
                u = rng.gen.random()
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


def kernel_sites(p1: BetaParams, p2: BetaParams, budget: int, trials: int, seed: int) -> list:
    """Per trial, the compiled ``first_returns``' result (0 for none) and
    the number of sites each chain drew."""
    firsts, sites = np.empty(trials, np.int64), np.empty((trials, 2), np.int64)
    assert kernel_first_returns(p1, p2, budget, seed, 0, firsts, sites) == 0
    return [(first, tuple(drew)) for first, drew in zip(firsts.tolist(), sites.tolist())]


def kernel_first_returns(p1: BetaParams, p2: BetaParams, budget: int, seed: int, t0: int,
                         firsts: np.ndarray, sites: np.ndarray | None = None) -> int:
    """The compiled ``first_returns`` on trials t0, t0 + 1, ... (mod 2**64),
    one per entry of ``firsts``, with ``rwre``'s roles."""
    return native.kernels().first_returns(
        *RngStream(seed, 0).key, t0, len(firsts), ENVIRONMENT, MIRROR_ENVIRONMENT, p1.alpha,
        p1.beta, p2.alpha, p2.beta, budget, firsts.ctypes.data,
        None if sites is None else sites.ctypes.data)
