"""Smoke test of the benchmark: every workload at a tiny size emits every
metric of BENCHMARK.json with its unit, traced and untraced.

Run from the root of the repository: ``python3 -m pytest -q bench/test_smoke.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, res.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(tmp_path, "--workload", "couple-grid", "--seed", "1", "--seconds", "1")
    assert res.returncode != 0
    assert res.stdout == ""


def test_missing_trace_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer
    from reinforce_sim.cli import main as cli

    gone = ("direct.folded", "reinforce_sim.direct", "no_such_function", tracer.TIME)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    with tracer.Tracer(cli) as traced:
        with pytest.raises(SystemExit) as exit_info:
            cli(["simulate", "--trials", "2", "--events", "100"], prog_name="reinforce-sim")
    assert exit_info.value.code == 0
    assert traced.absent == ["reinforce_sim.direct:no_such_function"]
    assert traced.counts["direct.direct_step"] == 200
    metrics = tracer.layer_metrics([traced], 0.0)
    assert metrics["direct.run_direct.calls"]["value"] == 2
