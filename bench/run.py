"""The reinforce-sim benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload couple-grid --seed 1 --seconds 15 --trace 0

It times ``import reinforce_sim.cli`` in fresh interpreters (``setup_s``),
each next to a fresh ``import numpy`` as the reference,
then runs the workload's CLI commands in this process through
``reinforce_sim.cli.main`` for ``--seconds``, one pass after another, and
checks every output.  Pass times are scaled to a reference machine speed,
measured by a fixed mix of work run between passes (see README.md).
With ``--trace 1`` it then runs the first passes again, untraced and
under :class:`tracer.Tracer`, and reports the per-layer metrics instead
of the end-to-end ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a record
of the run (seed, versions, machine, passes, errors) and the spans of a
traced run are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
TRACE_ROUNDS = 2
OUT_DIR = ".bench_out"
CALIBRATION_REF_S = 0.03
NUMPY_IMPORT_REF_S = 0.15


def pass_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


class Runner:
    """Runs a workload's commands in-process through the CLI, checks each
    output, and compares the outputs of commands run with equal arguments."""

    def __init__(self, cli, workload, checks):
        self.cli = cli
        self.workload = workload
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.repeated = False
        self._digests: dict[tuple, str] = {}

    def run_pass(self, index: int, seed: int) -> tuple[float, int]:
        """Run pass ``index``; returns (wall time of its commands, work done)."""
        wall = work = 0
        for argv in self.workload.commands(pass_seed(seed, index)):
            seconds, done = self.command(argv)
            wall += seconds
            work += done
        return wall, work

    def command(self, argv: list[str]) -> tuple[float, int]:
        self.attempted += 1
        buf = io.StringIO()
        code = 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                self.cli.main(argv, prog_name="reinforce-sim")
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
        except Exception:  # a crash fails this command; the run goes on
            code = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        out = buf.getvalue()

        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        key = tuple(argv)
        if key not in self._digests:
            self._digests[key] = digest
        else:
            self.repeated = True
            if self._digests[key] != digest:
                problems.append("output differs from an earlier run with the same arguments")
        work = 0
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                work = self.checks[argv[0]](argv, out)
            except (ValueError, LookupError, TypeError) as exc:
                problems.append(f"check failed: {exc!r}")
        if problems:
            self.failed += 1
            for problem in problems:
                self._report(f"{' '.join(argv)}: {problem}")
        return seconds, work

    def error(self, message: str) -> None:
        """Record a failed check made outside any command."""
        self.attempted += 1
        self.failed += 1
        self._report(message)

    def _report(self, message: str) -> None:
        self.errors.append(message)
        print(f"bench: error: {message}", file=sys.stderr)


def time_import(root: Path, module: str) -> float:
    """Seconds from starting a fresh interpreter until ``module`` is imported."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root: Path, seed: int, load: tuple) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "loadavg_at_start": list(load),
        "thread_pools": {var: os.environ[var] for var in THREAD_VARS},
    }


class _Site:
    __slots__ = ("red", "blue")

    def __init__(self, red: float, blue: float):
        self.red, self.blue = red, blue

    def share(self, x: float) -> float:
        return self.red * x / (self.red + self.blue)


def calibration_s() -> float:
    """Seconds for a fixed mix of the kinds of work the program does: dict
    and float steps, small objects and method calls, Philox buffer fills
    and gamma draws, Fraction arithmetic, JSON encoding.  A mix tracks the
    machine's speed on every workload better than any one of its parts."""
    import numpy as np

    t0 = time.perf_counter()
    table, x = {}, 0.5
    for i in range(30_000):
        table[i & 255] = table.get(i & 255, 0) + 1
        x = 3.7 * x * (1.0 - x)
    kept = []
    for i in range(12_000):
        kept.append(_Site(i, 0.5).share(1.5))
        if len(kept) > 64:
            kept.clear()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([1, 2])))
    for _ in range(60):
        gen.random(8192)
        gen.gamma(0.5)
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i % 97 + 1) * Fraction(3, 7)
    record = {"violations": 0, "tau1_event": 123, "events": 4567, "seed": 3, "stream_id": 9}
    for _ in range(500):
        json.loads(json.dumps(record, sort_keys=True))
    return time.perf_counter() - t0


def measure(runner: Runner, seed: int, seconds: float) -> list[tuple[float, int, float]]:
    """Passes as (wall, work, calibration time), for at least ``seconds``
    and at least MIN_PASSES passes.  A calibration runs between passes; a
    pass's calibration time is the mean of the two around it."""
    passes = []
    start = time.perf_counter()
    before = calibration_s()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, work = runner.run_pass(len(passes), seed)
        after = calibration_s()
        passes.append((wall, work, (before + after) / 2))
        before = after
    return passes


def end_to_end(workload, passes, setup) -> dict[str, dict]:
    """The end-to-end metrics.  Pass times are scaled to the reference speed
    of the calibration mix, import times to that of ``import numpy``."""
    walls = [wall * CALIBRATION_REF_S / cal for wall, _, cal in passes]
    work = sum(done for _, done, _ in passes)
    wall_s = statistics.fmean(walls)
    if workload.nominal_work and work:
        wall_s *= workload.nominal_work * len(passes) / work
    values = {
        "wall_s": (wall_s, "s"),
        "events_per_s": (work / sum(walls), "events/s"),
        "setup_s": (statistics.median(t * NUMPY_IMPORT_REF_S / ref for t, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced(runner: Runner, cli, seed: int, out_stem: Path):
    """Run the first passes untraced and then traced, twice; returns the
    per-layer metrics and the targets found absent.  The untraced rounds
    run next to the traced ones, warm, so their difference is the tracer's
    overhead."""
    from tracer import Tracer, layer_metrics

    indices = range(runner.workload.trace_passes)
    rounds, overheads = [], []
    for _ in range(TRACE_ROUNDS):
        untraced = sum(runner.run_pass(i, seed)[0] for i in indices)
        with Tracer(cli) as tracer:
            overheads.append(sum(runner.run_pass(i, seed)[0] for i in indices) - untraced)
        rounds.append(tracer)
    if any(t.counts != rounds[0].counts for t in rounds[1:]):
        runner.error("traced counts differ between rounds with the same seeds")
    rounds[-1].write_spans(f"{out_stem}-spans.npz")
    return layer_metrics(rounds, statistics.mean(overheads)), rounds[0].absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few small commands (smoke test)")
    args = parser.parse_args(argv)
    load = os.getloadavg()

    root = Path.cwd()
    package = root / "src" / "reinforce_sim"
    if not (package / "cli.py").is_file():
        print(f"bench: no {package / 'cli.py'}; run from the root of a reinforce-sim checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import reinforce_sim
    from reinforce_sim.cli import main as cli

    if Path(reinforce_sim.__file__).resolve().parent != package.resolve():
        print(f"bench: reinforce_sim imported from {reinforce_sim.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads

    try:
        workload = workloads.build(args.workload, tiny=args.tiny)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")

    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "environment": environment(root, args.seed, load)}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
    setup = [(time_import(root, "reinforce_sim.cli"), time_import(root, "numpy"))
             for _ in range(repeats)]
    runner = Runner(cli, workload, workloads.CHECKS)
    passes = measure(runner, args.seed, args.seconds)
    if args.trace:
        metrics, absent = traced(runner, cli, args.seed, out_stem)
        record["absent"] = absent
    else:
        metrics = end_to_end(workload, passes, setup)
    if not runner.repeated:
        runner.run_pass(0, args.seed)  # determinism: same seed, same bytes

    record.update(setup_samples=setup, passes=passes, errors=runner.errors, metrics=metrics,
                  error_rate=runner.failed / runner.attempted)
    Path(f"{out_stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# environment: {json.dumps(record['environment'])}")
    print(f"# passes: {len(passes)}, error_rate: {record['error_rate']}"
          + (f", absent: {record['absent']}" if record.get("absent") else ""))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
