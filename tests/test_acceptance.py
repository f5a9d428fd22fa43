"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line; tolerances are fixed here and in
``reinforce_sim.baselines`` (regression thresholds from the disclosed
pilot seed).  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines on success.
"""
from dataclasses import replace

import numpy as np
from scipy import stats

from reinforce_sim import baselines
from reinforce_sim.coupling import Environment, run_coupling, sample_site_environment
from reinforce_sim.direct import ModelParams, run_direct_batch
from reinforce_sim.distributions import (
    ENVIRONMENT,
    BetaParams,
    RngStream,
    digamma,
    integrate_log_odds,
)
from reinforce_sim.rwre import TRANSIENT_RIGHT, criterion, difference_recurrence
from reinforce_sim.urn import PolyaUrn, polya_fraction_samples
from reinforce_sim.urn_process import compare_exact, initial_masses

from oracles import beta_samples

PARAM_GRID = [
    ModelParams(a=a, delta=d, l0=l0, r0=r0)
    for a in (1.0, 2.0)
    for d in (0.0, 0.5)
    for l0, r0 in ((0, 1), (0, 2), (0, 3))
]


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_urn_equivalence():
    """Exact TV distance between the weight dynamics and the urn process:
    0 at every grid point and horizon."""
    tvs = [compare_exact(params, h).tv_distance for params in PARAM_GRID for h in range(1, 6)]
    report(1, "urn-representation equivalence", not any(tvs),
           f"max TV over grid x horizons 1..5 = {float(max(tvs))!r}")


def test_criterion_2_sandwich_invariant():
    """>= 10^4 coupled runs with a 10^4-event budget: zero ordering violations."""
    runs_per_config = 850  # 850 x 12 = 10200 runs
    budget = 10_000
    total = violations = tau1_hits = 0
    # one dynamics and one environment generator, re-keyed to each run's
    # streams (2026, c * 10_000 + t), as `couple` does
    rng, env_rng = RngStream(2026, 0), RngStream(2026, 0, ENVIRONMENT)
    for c, grid_params in enumerate(PARAM_GRID):
        params = replace(grid_params, max_events=budget)
        for t in range(runs_per_config):
            rng.rekey(c * 10_000 + t)
            env_rng.rekey(c * 10_000 + t)
            res = run_coupling(rng, Environment(params, env_rng))
            total += 1
            violations += res.violations
            tau1_hits += res.tau1_event is not None
    report(2, "sandwich ordering", total >= 10_000 and violations == 0,
           f"{violations} violations in {total} runs ({tau1_hits} met within budget)")


def test_criterion_3a_polya_limit_law():
    worst = 0.0
    for red, blue, d in ((1.0, 1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 3.0, 1.0)):
        urn = PolyaUrn((red, blue), d=d)
        xs = polya_fraction_samples(urn, 10_000, 10_000, RngStream(33, 0))[:, 0]
        ks = stats.kstest(xs, stats.beta(*urn.limit_law()).cdf).statistic
        worst = max(worst, ks)
    report(3, "Polya fraction limit law (a)", worst < 0.02,
           f"max KS over three parameter sets = {worst:.4f}")


def test_criterion_3b_three_color_limit_law():
    worst = 0.0
    # the chameleon urn's pure red, family (unit mass) and pure blue
    # marbles, each drawing adding two
    for red, blue in ((1.0, 2.0), (2.0, 3.0)):
        urn = PolyaUrn((red, 1.0, blue), d=2.0)
        xs = polya_fraction_samples(urn, 10_000, 10_000, RngStream(39, 0))
        alphas = urn.limit_law()
        total = sum(alphas)
        for i, a_i in enumerate(alphas):
            ks = stats.kstest(xs[:, i], stats.beta(a_i, total - a_i).cdf).statistic
            worst = max(worst, ks)
    report(3, "three-color Dirichlet marginals (b)", worst < 0.02,
           f"max marginal KS = {worst:.4f}")


def test_criterion_3c_environment_tables():
    worst = 0.0
    degenerate_ok = True
    n = 10_000
    for a in (1.0, 2.0):
        for delta in (0.0, 0.5):
            params = ModelParams(a=a, delta=delta, l0=0, r0=2)
            rng = RngStream(13, 0)
            for v in (-1, 0, 1, 2, 3):  # one site per class
                draws = np.array([sample_site_environment(params, v, rng) for _ in range(n)])
                r0m, b0m = initial_masses(params, v)
                for col, (alpha, beta) in (
                    (0, (r0m / 2, (b0m + 1) / 2)),
                    (1, (b0m / 2, (r0m + 1) / 2)),
                ):
                    if alpha <= 0:
                        degenerate_ok &= bool((draws[:, col] == 0.0).all())
                    else:
                        ks = stats.kstest(
                            draws[:, col], stats.beta(alpha, beta).cdf
                        ).statistic
                        worst = max(worst, ks)
    report(3, "environment Beta tables (c)", worst < 0.02 and degenerate_ok,
           f"max KS per site class = {worst:.4f}, degenerate rows exact = {degenerate_ok}")


def test_criterion_4_transience_criteria():
    grid = [
        (0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.5),
        (1.5, 0.5), (3.0, 0.1), (0.1, 3.0), (5.0, 5.0), (2.5, 0.5),
        (0.05, 0.07), (4.0, 0.3), (0.3, 4.0), (10.0, 1.0), (1.0, 10.0),
        (6.0, 2.0), (2.0, 6.0), (0.75, 1.25), (1.25, 0.75), (8.0, 8.0),
    ]
    quad_err = max(
        abs(integrate_log_odds(BetaParams(a1, a2)) - (digamma(a1) - digamma(a2)))
        for a1, a2 in grid
    )

    p = BetaParams(2.0, 1.0)
    xs = beta_samples(RngStream(112, 0), p, 100_000)
    mc_err = abs(np.mean(np.log(xs / (1 - xs))) - criterion(p)["log_odds_mean"])

    p = BetaParams(2.5, 0.5)
    xs = beta_samples(RngStream(102, 0), p, 100_000)
    target = p.beta / (p.alpha - 1.0)
    inv_rel_err = abs(np.mean((1 - xs) / xs) - target) / target

    classifications_ok = True
    for a in (0.5, 1.0, 2.0, 5.0):
        for delta in (0.0, 0.25, 0.5, 0.75, 0.99):
            res = criterion(BetaParams((a + 1) / 2, (a + delta) / 2))
            classifications_ok &= res["classification"] == TRANSIENT_RIGHT
            classifications_ok &= not res["finite_mean_return"]

    ok = (
        quad_err < 1e-7
        and mc_err < 0.01
        and inv_rel_err < 0.02
        and classifications_ok
    )
    report(4, "transience and return-time criteria", ok,
           f"quad err {quad_err:.2e}, MC log-odds err {mc_err:.4f}, "
           f"inverse-odds rel err {inv_rel_err:.4f}, grid classified right-transient "
           f"with infinite mean return = {classifications_ok}")


def test_criterion_5_recurrence_trend_direct():
    budgets = (1_000, 10_000, 100_000)
    ok = True
    details = []
    for delta in (0.0, 0.5):
        params = ModelParams(a=1.0, delta=delta, l0=0, r0=2, max_events=budgets[-1])
        offset = 0 if delta == 0.0 else 500_000
        rows = np.concatenate(list(run_direct_batch(
            params, 515, range(offset, offset + baselines.PILOT_TRIALS), stop_after_meetings=1)))
        met, taus = rows[:, 0] > 0, rows[:, 1]  # events run: tau1 where the walkers met
        fracs = [int(np.count_nonzero(met & (taus <= b))) / len(rows) for b in budgets]
        monotone = all(f1 <= f2 for f1, f2 in zip(fracs, fracs[1:]))
        threshold = baselines.regression_threshold(
            baselines.DIRECT_TAU1_PILOT[(delta, budgets[-1])]
        )
        ok &= monotone and fracs[-1] >= threshold
        details.append(
            f"delta={delta}: fractions {fracs}, threshold {threshold:.4f}"
        )
    report(5, "meeting-time recurrence trend", ok, "; ".join(details))


def test_criterion_5_recurrence_trend_difference():
    p = BetaParams(0.5, 1.5)
    budgets = [100, 1_000, 10_000]
    curve = difference_recurrence(p, p, budgets, baselines.PILOT_TRIALS, 525)
    monotone = all(
        f1 <= f2 for f1, f2 in zip(curve.hit_fractions, curve.hit_fractions[1:])
    )
    threshold = baselines.regression_threshold(
        baselines.DIFFERENCE_RECURRENCE_PILOT[budgets[-1]]
    )
    ok = monotone and curve.hit_fractions[-1] >= threshold
    report(5, "difference-recurrence trend", ok,
           f"fractions {curve.hit_fractions}, threshold {threshold:.4f}")


def test_criterion_6_martingale_and_exchangeability():
    urn = PolyaUrn((1.0, 2.0), d=2.0)
    rng = RngStream(32, 0)
    martingale_ok = True
    max_z = 0.0
    for n in (10, 100, 1000):
        xs = polya_fraction_samples(urn, n, 10_000, rng)[:, 0]
        se = xs.std(ddof=1) / np.sqrt(len(xs))
        z = abs(xs.mean() - urn.masses[0] / sum(urn.masses)) / se
        max_z = max(max_z, z)
        martingale_ok &= z < 3.0

    from fractions import Fraction
    from itertools import permutations

    def seq_prob(colors, r0=Fraction(1), b0=Fraction(2), d=Fraction(2)):
        r, b, p = r0, b0, Fraction(1)
        for c in colors:
            t = r + b
            if c == "r":
                p *= r / t
                r += d
            else:
                p *= b / t
                b += d
        return p

    exch_err = 0.0
    for base in ("rrb", "rbb", "rrr"):
        probs = {seq_prob(perm) for perm in permutations(base)}
        exch_err = max(exch_err, float(max(probs) - min(probs)))

    ok = martingale_ok and exch_err <= 1e-14
    report(6, "martingale and exchangeability", ok,
           f"max |z| = {max_z:.2f}, max permutation spread = {exch_err!r}")


def test_criterion_7_determinism(tmp_path):
    from click.testing import CliRunner

    from reinforce_sim.cli import main

    runner = CliRunner()
    commands = [
        ["simulate", "--trials", "50", "--events", "2000", "--seed", "7"],
        ["urn-verify", "--a", "2.0", "--delta", "0.5", "--horizon", "4"],
        ["couple", "--trials", "30", "--events", "2000", "--seed", "7"],
        ["criterion", "--pair", "2.0", "1.0"],
        ["polya", "--draws", "2000", "--runs", "2000", "--seed", "7"],
        ["rwre", "--budgets", "100,500", "--trials", "100", "--seed", "7"],
    ]
    ok = True
    for i, args in enumerate(commands):
        out1 = tmp_path / f"{i}_a.out"
        out2 = tmp_path / f"{i}_b.out"
        r1 = runner.invoke(main, args + ["--out", str(out1)])
        r2 = runner.invoke(main, args + ["--out", str(out2)])
        ok &= r1.exit_code == 0 and r2.exit_code == 0
        ok &= out1.read_bytes() == out2.read_bytes()
    report(7, "byte-identical reruns", ok,
           f"{len(commands)} subcommands re-run with fixed seeds")
