"""Command-line interface: exit codes, output formats, reproducibility."""
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import reinforce_sim
from reinforce_sim import cli, distributions, rwre, urn_process
from reinforce_sim.cli import main
from reinforce_sim.coupling import MARGINAL_TRIALS, Environment, run_coupling
from reinforce_sim.direct import ModelParams, meeting_statistics, run_direct
from reinforce_sim.distributions import ENVIRONMENT, HOLDING_TIMES, RngStream


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return fh.read()


class TestSimulate:
    def test_csv_output_with_metadata(self, runner, tmp_path):
        out = tmp_path / "meetings.csv"
        result = runner.invoke(
            main,
            ["simulate", "--trials", "20", "--events", "500", "--seed", "7",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        text = read_csv(out)
        lines = text.split("\r\n")
        assert lines[0].startswith("# reinforce-sim v")
        assert lines[1].startswith("# config: ")
        assert "k,frequency,stderr" in lines
        data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("k,")]
        assert data_rows
        k, freq, stderr = data_rows[0].split(",")
        assert k == "1"
        assert 0.0 <= float(freq) <= 1.0

    def test_one_particle_runs_no_batch(self, runner, tmp_path, monkeypatch):
        # a lone particle never meets, so its CSV has no rows to run trials for
        def no_batch(*args, **kwargs):
            raise AssertionError("run_direct_batch called for one particle")
        monkeypatch.setattr(cli, "run_direct_batch", no_batch)
        out = tmp_path / "meetings.csv"
        result = runner.invoke(main, ["simulate", "--n", "1", "--trials", "200",
                                      "--events", "100000", "--out", str(out)])
        assert result.exit_code == 0
        assert read_csv(out).split("\r\n")[-2:] == ["k,frequency,stderr", ""]

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = ["simulate", "--trials", "10", "--events", "300", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seeds_differ(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--trials", "30", "--events", "500"]
        runner.invoke(main, base + ["--seed", "1", "--out", str(out1)])
        runner.invoke(main, base + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_negative_delta_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--delta", "-0.5"])
        assert result.exit_code == 2
        assert "nonnegative" in result.output

    def test_large_delta_notes_regime(self, runner):
        result = runner.invoke(
            main, ["simulate", "--delta", "1.5", "--trials", "5", "--events", "100"]
        )
        assert result.exit_code == 0
        assert "outside the proven recurrence regime" in result.output

    def test_trajectory_jsonl(self, runner, tmp_path):
        traj = tmp_path / "traj.jsonl"
        result = runner.invoke(
            main,
            ["simulate", "--trials", "3", "--events", "50", "--seed", "5",
             "--out", str(tmp_path / "m.csv"), "--trajectory-out", str(traj)],
        )
        assert result.exit_code == 0
        lines = traj.read_text().strip().split("\n")
        assert len(lines) == 50
        row = json.loads(lines[0])
        assert set(row) == {"e", "t", "p", "from", "to"}

    @pytest.mark.parametrize("timestamps", [False, True])
    def test_scalar_engine_bytes(self, runner, tmp_path, timestamps):
        out, traj = tmp_path / "m.csv", tmp_path / "traj.jsonl"
        args = ["simulate", "--trials", "6", "--events", "700", "--seed", "13",
                "--stop-after-meetings", "3", "--out", str(out), "--trajectory-out", str(traj)]
        result = runner.invoke(main, args + (["--timestamps"] if timestamps else []))
        assert result.exit_code == 0
        params = ModelParams(a=1.0, delta=0.0, l0=0, r0=2, max_events=700)
        records = [run_direct(params, 2, RngStream(13, t), stop_after_meetings=3)
                   for t in range(6)]
        rows = [f"{r['k']},{r['frequency']!r},{r['stderr']!r}"
                for r in meeting_statistics(records)]
        assert read_csv(out).split("\r\n")[-len(rows) - 1:-1] == rows
        clock = RngStream(13, 0, HOLDING_TIMES) if timestamps else None
        assert traj.read_text() == records[0].to_jsonl(clock)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_stop_after_meetings_is_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["simulate", "--stop-after-meetings", value, "--trials", "3",
                                      "--events", "100", "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '--stop-after-meetings': {value} is not in the range x>=1" \
            in result.output
        assert not out.exists()

    @pytest.mark.parametrize("stop", [None, 3])
    def test_header_records_the_meeting_stop(self, runner, tmp_path, stop):
        out = tmp_path / "m.csv"
        args = ["simulate", "--trials", "4", "--events", "300", "--out", str(out)]
        args += [] if stop is None else ["--stop-after-meetings", str(stop)]
        assert runner.invoke(main, args).exit_code == 0
        config = json.loads(read_csv(out).split("\r\n")[1].removeprefix("# config: "))
        assert config["stop_after_meetings"] == stop

    def test_more_than_two_walkers_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--n", "3"])
        assert result.exit_code == 2
        assert "--n" in result.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5, "events": 100, "seed": 9, "r0": 4}))
        out = tmp_path / "m.csv"
        result = runner.invoke(
            main,
            ["simulate", "--config", str(cfg), "--trials", "7", "--out", str(out)],
        )
        assert result.exit_code == 0
        header = read_csv(out).split("\r\n")[1]
        resolved = json.loads(header[len("# config: "):])
        assert resolved["trials"] == 7  # flag wins
        assert resolved["r0"] == 4  # config fills the rest

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trails": 5}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "trails" in result.output

    def test_malformed_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 5,')
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "not valid JSON" in result.output

    @pytest.mark.parametrize("text", [b'{"seed": "\xff"}', b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "5001-digits"])
    def test_config_that_does_not_load_is_usage_error(self, runner, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "config file is not valid JSON" in result.output

    def test_config_values_take_the_flag_type(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "5", "events": "100", "a": 1}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out1)])
        r2 = runner.invoke(main, ["simulate", "--trials", "5", "--events", "100", "--a", "1",
                                  "--out", str(out2)])
        assert r1.exit_code == r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_value_of_wrong_type_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "five"}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "--trials" in result.output

    def test_config_seed_is_not_overridden_by_the_environment(self, runner, tmp_path):
        # the seed comes from the flag, else the config file, else 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--trials", "10", "--events", "200"]
        r1 = runner.invoke(main, base + ["--config", str(cfg), "--out", str(out1)],
                           env={"REINFORCE_SIM_SEED": "77"})
        r2 = runner.invoke(main, base + ["--seed", "5", "--out", str(out2)])
        assert r1.exit_code == r2.exit_code == 0
        assert '"seed": 5' in read_csv(out1)
        assert out1.read_bytes() == out2.read_bytes()


class TestUrnVerify:
    def test_equivalence_certificate(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["urn-verify", "--horizon", "4", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "OK" in result.output
        report = json.loads(out.read_text())
        assert report["equivalent"] is True
        assert report["tv_distance"] == 0.0
        assert report["trajectories_direct"] == report["trajectories_urn"]
        assert "tolerance" not in report

    def test_any_exact_difference_is_a_mismatch(self, runner, tmp_path, monkeypatch):
        # a kernel off by 1e-30 gives a TV far below any float tolerance;
        # the verdict reads the exact distance, so it still fails
        exact = urn_process.right_jump_probability
        monkeypatch.setattr(urn_process, "right_jump_probability",
                            lambda *args: exact(*args) + Fraction(1, 10**30))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["urn-verify", "--horizon", "3", "--out", str(out)])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output
        report = json.loads(out.read_text())
        assert report["equivalent"] is False
        assert 0.0 < report["tv_distance"] < 1e-20

    def test_distance_below_the_smallest_double_is_not_shown_as_zero(self, runner, tmp_path,
                                                                      monkeypatch):
        # float() of this distance underflows: the line shows the exact
        # value and the JSON the smallest positive double
        exact = urn_process.right_jump_probability
        monkeypatch.setattr(urn_process, "right_jump_probability",
                            lambda *args: exact(*args) + Fraction(1, 10**400))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["urn-verify", "--horizon", "3", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "TV(direct, urn) = 1.395833e-400 at horizon 3: MISMATCH\n"
        report = json.loads(out.read_text())
        assert report["equivalent"] is False
        assert report["tv_distance"] == math.ulp(0.0)

    def test_horizon_guard_is_usage_error(self, runner, monkeypatch):
        # a small bound keeps the refusal cheap; the default takes 11 layers
        monkeypatch.setattr(urn_process, "MAX_LIVE_STATES", 100)
        result = runner.invoke(main, ["urn-verify", "--horizon", "20"])
        assert result.exit_code == 2
        assert "MAX_LIVE_STATES = 100 live joint states" in result.output

    def test_horizons_past_the_old_tree_cap_run(self, runner):
        result = runner.invoke(main, ["urn-verify", "--r0", "1", "--horizon", "9"])
        assert result.exit_code == 0
        assert result.output == "TV(direct, urn) = 0.0 at horizon 9: OK\n"

    def test_small_a_needs_flag(self, runner):
        result = runner.invoke(main, ["urn-verify", "--a", "0.5"])
        assert result.exit_code == 2
        assert "a >= 1" in result.output

    def test_small_a_with_flag_still_equivalent(self, runner):
        result = runner.invoke(
            main, ["urn-verify", "--a", "0.5", "--allow-small-a", "--horizon", "4"]
        )
        assert result.exit_code == 0
        assert "OK" in result.output


class TestCouple:
    def test_jsonl_summaries(self, runner, tmp_path):
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(
            main,
            ["couple", "--trials", "20", "--events", "2000", "--seed", "11",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 21  # meta line + one summary per run
        meta = json.loads(lines[0])["meta"]
        assert meta["tool"] == "reinforce-sim"
        for line in lines[1:]:
            row = json.loads(line)
            assert row["violations"] == 0
            assert row["max_rP_minus_lP"] >= 2

    @pytest.mark.parametrize("a,delta,r0", [(1.0, 0.0, 2), (2.0, 0.5, 3)])
    def test_runs_equal_freshly_built_streams(self, runner, tmp_path, a, delta, r0):
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(main, ["couple", "--a", str(a), "--delta", str(delta),
                                      "--r0", str(r0), "--trials", "40", "--events", "3000",
                                      "--seed", "21", "--out", str(out)])
        assert result.exit_code == 0
        params = ModelParams(a=a, delta=delta, l0=0, r0=r0, max_events=3000)
        expected = [
            run_coupling(RngStream(21, t), Environment(params, RngStream(21, t, ENVIRONMENT)))
            for t in range(40)
        ]
        assert out.read_text().split("\n")[1:-1] == [res.to_json() for res in expected]

    def test_coincident_start(self, runner, tmp_path):
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(
            main,
            ["couple", "--l0", "1", "--r0", "1", "--trials", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert json.loads(line)["tau1_event"] == 0

    def test_marginal_check_report_appended(self, runner, tmp_path):
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(
            main,
            ["couple", "--trials", "50", "--events", "1000", "--seed", "13",
             "--marginal-check", "--out", str(out)],
        )
        assert result.exit_code == 0
        last = json.loads(out.read_text().strip().split("\n")[-1])
        assert set(last) == {"trials", "significance", "excluded_sites", "passed", "checks"}
        assert last["passed"] is True

    def test_marginal_check_runs_at_most_the_trial_cap(self, runner, tmp_path, monkeypatch):
        result = runner.invoke(main, ["couple", "--help"])
        assert f"first min(trials, {MARGINAL_TRIALS}) trials" in " ".join(result.output.split())
        monkeypatch.setattr(cli, "MARGINAL_TRIALS", 3)
        out = tmp_path / "runs.jsonl"
        runner.invoke(main, ["couple", "--trials", "5", "--events", "200", "--marginal-check",
                             "--out", str(out)])
        assert json.loads(out.read_text().splitlines()[-1])["trials"] == 3

    def test_marginal_check_of_no_site_fails(self, runner, tmp_path):
        # 20 short runs: no free-walker site reaches the minimum visit count
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(
            main,
            ["couple", "--trials", "20", "--events", "2000", "--seed", "7",
             "--marginal-check", "--out", str(out)],
        )
        assert result.exit_code == 1
        assert "marginal check failed" in result.output
        last = json.loads(out.read_text().strip().split("\n")[-1])
        assert last["checks"] == [] and last["excluded_sites"] > 0
        assert last["passed"] is False

    def test_negative_urn_mass_exits_one(self, runner, tmp_path):
        # a = 1e-17: a - 1 rounds to -1, so the urn at l0 has no mass left
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(main, ["couple", "--a", "1e-17", "--allow-small-a", "--trials", "1",
                                      "--events", "5", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("negative urn mass in a coupled run: seed 3, trial 0, ")
        assert "urn total mass 0.0 is not positive" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("start", ["0", "3"])
    def test_marginal_check_of_coincident_start_is_usage_error(self, runner, tmp_path, start):
        # coincident walkers take no free steps, so there is nothing to test
        out = tmp_path / "runs.jsonl"
        result = runner.invoke(main, ["couple", "--l0", start, "--r0", start, "--trials", "5",
                                      "--marginal-check", "--out", str(out)])
        assert result.exit_code == 2
        assert "--marginal-check needs l0 < r0" in result.output
        assert not out.exists()


class TestCriterion:
    def test_grid_report(self, runner, tmp_path):
        out = tmp_path / "crit.json"
        result = runner.invoke(
            main,
            ["criterion", "--pair", "2.0", "1.0", "--pair", "1.0", "1.0",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        rows = report["results"]
        assert rows[0]["classification"] == "transient_right"
        assert abs(rows[0]["closed_form"] - rows[0]["quadrature"]) < 1e-7
        assert rows[1]["classification"] == "recurrent"

    def test_failed_quadrature_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "crit.json"
        result = runner.invoke(main, ["criterion", "--pair", "2.0", "1.0",
                                      "--pair", "100000000", "300000000", "--out", str(out)])
        assert result.exit_code == 2
        assert "Beta(100000000.0, 300000000.0)" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_near_ties_are_transient(self, runner):
        result = runner.invoke(main, ["criterion", "--pair", "1", "1.0000000000001",
                                      "--pair", "1.0000000000001", "1"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["results"]
        assert [r["classification"] for r in rows] == ["transient_left", "transient_right"]

    # (1e8, 3e8): quad converges to -0.55 against the closed form -1.10;
    # (1e-8, 0.1): quad warns that it did not converge; (1e-5, 1): quad is
    # 8e-8 off the closed form -99999.99998
    @pytest.mark.parametrize("pair", [("1e8", "3e8"), ("1e-8", "0.1"), ("1e-5", "1")])
    def test_wrong_quadrature_is_usage_error(self, runner, pair):
        result = runner.invoke(main, ["criterion", "--pair", *pair])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"Error: log-odds quadrature for Beta({float(pair[0])}, ")

    def test_large_shapes_pass_the_closed_form_check(self, runner):
        pairs = [("540", "540"), ("530", "545"), ("1000", "2000"), ("300", "800"),
                 ("1e5", "2e5")]
        args = [word for pair in pairs for word in ("--pair", *pair)]
        result = runner.invoke(main, ["criterion", *args])
        assert result.exit_code == 0
        rows = json.loads(result.output)["results"]
        assert [(r["alpha"], r["beta"]) for r in rows] == [tuple(map(float, p)) for p in pairs]
        assert all(abs(r["closed_form"] - r["quadrature"]) <= 1e-8 for r in rows)

    @pytest.mark.parametrize("warning_flags", [[], ["-W", "error"]])
    def test_quadrature_warning_is_one_usage_error_line(self, warning_flags):
        # scipy's IntegrationWarning neither leaks to stderr nor, under
        # -W error, escapes as a traceback
        res = subprocess.run(
            [sys.executable, *warning_flags, "-m", "reinforce_sim.cli",
             "criterion", "--pair", "1e-6", "1"],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1].startswith(
            "Error: log-odds quadrature for Beta(1e-06, 1.0) failed: The algorithm does not")
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr

    def test_empty_grid_is_usage_error(self, runner):
        result = runner.invoke(main, ["criterion"])
        assert result.exit_code == 2

    def test_invalid_pair_is_usage_error(self, runner):
        result = runner.invoke(main, ["criterion", "--pair", "-1.0", "1.0"])
        assert result.exit_code == 2


class TestPolya:
    def test_limit_law_check_passes(self, runner, tmp_path):
        out = tmp_path / "polya.json"
        result = runner.invoke(
            main,
            ["polya", "--red", "1", "--blue", "1", "--d", "2", "--draws", "4000",
             "--runs", "4000", "--seed", "11", "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["two_color"]["passed"] is True
        assert report["two_color"]["target"] == {"alpha": 0.5, "beta": 0.5}

    def test_three_color_marginals(self, runner, tmp_path):
        out = tmp_path / "polya3.json"
        result = runner.invoke(
            main,
            ["polya", "--red", "1", "--blue", "2", "--draws", "4000",
             "--runs", "4000", "--seed", "12", "--three-color", "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert len(report["three_color"]) == 3
        assert all(m["passed"] for m in report["three_color"])

    def test_failing_threshold_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["polya", "--draws", "500", "--runs", "2000", "--seed", "1",
             "--ks-threshold", "1e-6", "--out", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 1

    def test_exit_status_reads_every_passed_flag(self, runner, tmp_path):
        # a threshold just above each KS distance in turn: the run fails
        # until every one of the four checks passes
        args = ["polya", "--red", "1", "--blue", "2", "--draws", "200", "--runs", "200",
                "--seed", "3", "--three-color", "--out", str(tmp_path / "polya.json")]
        runner.invoke(main, args + ["--ks-threshold", "1"])
        report = json.loads((tmp_path / "polya.json").read_text())
        checks = [report["two_color"], *report["three_color"]]
        distances = sorted(check["ks_distance"] for check in checks)
        for d in distances:
            result = runner.invoke(main, args + ["--ks-threshold", repr(d + 1e-12)])
            assert result.exit_code == (0 if d == distances[-1] else 1)

    def test_invalid_urn_is_usage_error(self, runner):
        result = runner.invoke(main, ["polya", "--red", "-1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", ["--red", "--blue"])
    def test_zero_mass_is_usage_error(self, runner, tmp_path, flag):
        out = tmp_path / "polya.json"
        result = runner.invoke(main, ["polya", flag, "0", "--runs", "50", "--draws", "50",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "no Beta limit law" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--runs", "0"), ("--draws", "-3"), ("--draws", "0")])
    def test_nonpositive_count_is_usage_error(self, runner, flag, value):
        result = runner.invoke(main, ["polya", flag, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}': {value} is not in the range x>=1" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.5", "1.5"])
    def test_threshold_outside_the_unit_interval_is_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "polya.json"
        result = runner.invoke(main, ["polya", "--ks-threshold", value, "--runs", "50",
                                      "--draws", "50", "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--ks-threshold'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0", "2"])
    def test_config_threshold_outside_the_unit_interval_is_usage_error(self, runner, tmp_path,
                                                                       value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"ks_threshold": {value}}}')
        out = tmp_path / "polya.json"
        result = runner.invoke(main, ["polya", "--config", str(cfg), "--runs", "50",
                                      "--draws", "50", "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--ks-threshold'" in result.output
        assert not out.exists()

    def test_threshold_of_one_passes_any_distance(self, runner, tmp_path):
        out = tmp_path / "polya.json"
        result = runner.invoke(main, ["polya", "--ks-threshold", "1", "--runs", "50",
                                      "--draws", "50", "--three-color", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["config"]["ks_threshold"] == 1.0
        assert report["two_color"]["passed"] is True


class TestRwre:
    def test_curve_csv(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        result = runner.invoke(
            main,
            ["rwre", "--budgets", "50,200", "--trials", "100", "--seed", "21",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        assert result.stderr == ""  # inside the regime
        lines = read_csv(out).split("\r\n")
        assert "budget,hit_fraction,stderr" in lines
        rows = [l for l in lines if l and l[0].isdigit()]
        assert [r.split(",")[0] for r in rows] == ["50", "200"]
        fracs = [float(r.split(",")[1]) for r in rows]
        assert fracs[0] <= fracs[1]

    def test_regime_warning_on_stderr(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["rwre", "--alpha1", "2.0", "--beta1", "1.0", "--budgets", "50",
             "--trials", "20", "--out", str(tmp_path / "c.csv")],
        )
        assert result.exit_code == 0
        assert result.stderr == ("warning: environment parameters violate the mu > 0 hypothesis; "
                                 "the return probability has no guarantee in this regime\n")

    def test_warning_inside_the_run_propagates(self, runner, monkeypatch):
        def warning_first_returns(*args):
            warnings.warn("synthetic", RuntimeWarning)
            return []
        monkeypatch.setattr(rwre, "first_returns", warning_first_returns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["rwre", "--trials", "5", "--budgets", "10"])
        assert result.exit_code == 1
        assert isinstance(result.exception, RuntimeWarning)

    def test_nonpositive_budget_is_usage_error(self, runner):
        result = runner.invoke(main, ["rwre", "--budgets", "0"])
        assert result.exit_code == 2
        assert "--budgets" in result.output

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = ["rwre", "--budgets", "50,100", "--trials", "50", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, args + ["--out", str(out1)])
        runner.invoke(main, args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


# Commands whose environments or holding times used to share a generator
# with the buffered uniforms; TRAJ stands for a trajectory file.
KEYED_STREAM_COMMANDS = {
    "couple": ["couple", "--trials", "20", "--events", "2000", "--seed", "7"],
    "couple-marginal-check": ["couple", "--trials", "20", "--events", "2000", "--seed", "7",
                              "--marginal-check"],
    "couple-small-a": ["couple", "--a", "0.5", "--allow-small-a", "--r0", "3", "--trials", "20",
                       "--events", "2000", "--seed", "7"],
    "rwre": ["rwre", "--budgets", "100,500", "--trials", "100", "--seed", "7"],
    "simulate-timestamps": ["simulate", "--trials", "3", "--events", "20000", "--seed", "7",
                            "--timestamps", "--trajectory-out", "TRAJ"],
}
# 20 short runs leave the marginal check no site to test, so it fails
KEYED_STREAM_EXIT_CODES = {"couple-marginal-check": 1}


class TestStreamKeys:
    @pytest.mark.parametrize("name", sorted(KEYED_STREAM_COMMANDS))
    def test_output_does_not_depend_on_the_buffer_block(self, runner, tmp_path, monkeypatch,
                                                         name):
        outputs = set()
        for block in (8192, 4096, 1000):
            monkeypatch.setattr(distributions, "_BUFFER_BLOCK", block)
            out, traj = tmp_path / f"{block}.out", tmp_path / f"{block}.jsonl"
            args = [str(traj) if a == "TRAJ" else a for a in KEYED_STREAM_COMMANDS[name]]
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == KEYED_STREAM_EXIT_CODES.get(name, 0)
            outputs.add((out.read_bytes(), traj.read_bytes() if traj.exists() else b""))
        assert len(outputs) == 1

    def test_timestamps_leave_the_meeting_csv_alone(self, runner, tmp_path):
        args = ["simulate", "--trials", "8", "--events", "3000", "--seed", "7"]
        plain, stamped = tmp_path / "plain.csv", tmp_path / "stamped.csv"
        assert runner.invoke(main, args + ["--out", str(plain)]).exit_code == 0
        assert runner.invoke(main, args + ["--timestamps", "--out", str(stamped)]).exit_code == 0
        assert plain.read_bytes() == stamped.read_bytes()


def recorded_config(command, path):
    """The configuration a command recorded in its output file."""
    lines = read_csv(path).splitlines()
    if command in ("simulate", "rwre"):
        return json.loads(lines[1].removeprefix("# config: "))
    return json.loads(lines[0])["meta"]["config"]


# each command's recorded configuration: every option a config file may
# set, plus the derived entries
RECORDED_KEYS = {
    "simulate": ({"n", "a", "delta", "l0", "r0", "events", "trials", "stop_after_meetings",
                  "seed"}, {"outside_recurrence_regime"}),
    "urn-verify": ({"a", "delta", "l0", "r0", "horizon"}, set()),
    "couple": ({"a", "delta", "l0", "r0", "events", "trials", "seed"}, set()),
    "criterion": ({"pairs"}, set()),
    "polya": ({"red", "blue", "d", "draws", "runs", "ks_threshold", "seed"}, {"three_color"}),
    "rwre": ({"alpha1", "beta1", "alpha2", "beta2", "budgets", "trials", "seed"}, {"regime_ok"}),
}
SMALL_RUNS = {
    "simulate": ["--trials", "3", "--events", "50"],
    "urn-verify": ["--horizon", "2"],
    "couple": ["--trials", "2", "--events", "50"],
    "criterion": ["--pair", "2", "1"],
    "polya": ["--draws", "20", "--runs", "20", "--ks-threshold", "1"],
    "rwre": ["--budgets", "10", "--trials", "5"],
}


class TestRecordedConfig:
    @pytest.mark.parametrize("command", sorted(RECORDED_KEYS))
    def test_key_set(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, *SMALL_RUNS[command], "--out", str(out)])
        assert result.exit_code == 0
        options, derived = RECORDED_KEYS[command]
        assert set(recorded_config(command, out)) == options | derived

    @pytest.mark.parametrize("command", sorted(RECORDED_KEYS))
    def test_config_file_takes_exactly_the_options(self, runner, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        options, derived = RECORDED_KEYS[command]
        for key in derived | {"out_path", "config_path"}:
            cfg.write_text(json.dumps({key: 1}))
            result = runner.invoke(main, [command, "--config", str(cfg)])
            assert result.exit_code == 2
            assert f"expected some of {', '.join(sorted(options))}" in result.output

    @pytest.mark.parametrize("command,config,option", [
        ("simulate", {"trials": 0}, "--trials"),
        ("couple", {"trials": 0}, "--trials"),
        ("rwre", {"trials": 0}, "--trials"),
        ("simulate", {"n": 3}, "--n"),
        ("simulate", {"n": 0}, "--n"),
        ("simulate", {"stop_after_meetings": 0}, "--stop-after-meetings"),
        ("polya", {"draws": 0}, "--draws"),
        ("polya", {"runs": -1}, "--runs"),
        # a config value parses as the text of its flag: no rounding,
        # widening or overflow
        ("simulate", {"trials": 1.5}, "--trials"),
        ("couple", {"seed": 1e30}, "--seed"),
        ("couple", {"a": True}, "--a"),
        ("couple", '{"events": 1e400}', "--events"),
    ])
    def test_config_count_out_of_range_is_usage_error(self, runner, tmp_path, command, config,
                                                      option):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "reinforce-sim" in result.output

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["version"] == reinforce_sim.__version__

    def test_help_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("simulate", "urn-verify", "couple", "criterion", "polya", "rwre"):
            assert name in result.output


SCIPY_MODULES = ("scipy.stats", "scipy.integrate", "scipy.special")


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(reinforce_sim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def scipy_modules_after(script: str) -> list[str]:
    """The SCIPY_MODULES loaded once ``script`` has run in a fresh interpreter."""
    env = src_env()
    script += ("\nimport json, sys\n"
               f"print(json.dumps(sorted(m for m in sys.modules if m in {SCIPY_MODULES!r})))")
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def cli_script(commands: list[list[str]]) -> str:
    """A script running each command through ``main``; a nonzero exit fails it."""
    return "from reinforce_sim.cli import main\n" + "".join(
        f"main({argv!r}, standalone_mode=False)\n" for argv in commands)


class TestImportPath:
    """Only polya, criterion and couple --marginal-check load scipy."""

    def test_importing_the_cli_loads_no_scipy(self):
        assert scipy_modules_after("import reinforce_sim.cli") == []

    def test_commands_without_scipy_load_none(self):
        commands = [
            ["rwre", "--trials", "20", "--budgets", "10,100"],
            ["rwre", "--trials", "5", "--budgets", "10", "--alpha1", "2", "--beta1", "1"],
            ["couple", "--trials", "5", "--events", "200"],
            ["simulate", "--trials", "5", "--events", "200"],
            ["urn-verify", "--horizon", "2"],
        ]
        assert scipy_modules_after(cli_script(commands)) == []

    def test_criterion_loads_scipy(self):
        # the guard above would pass vacuously if this probe saw no module
        probe = cli_script([["criterion", "--pair", "1", "2"]])
        assert "scipy.special" in scipy_modules_after(probe)
