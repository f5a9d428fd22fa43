"""Check that this tree's CLI writes the same bytes as another checkout's.

Run from the root of a checkout: ``python3 tools/same_bytes.py OTHER_TREE``.

Each command of ``COMMANDS`` runs twice as ``python -m reinforce_sim.cli``,
once on this tree's ``src`` and once on OTHER_TREE's, each run in a fresh
temporary directory holding only the command's input files.  The exit
code, standard output, standard error and the bytes of every file in the
directory afterwards must be equal.  One line per command says ``same`` or
what differs; the exit code is 1 on any difference.  The 52 commands cover
every subcommand; the direct engine runs at delta = 0, at dyadic a and
delta, and at a non-dyadic pair, once without a log
(``simulate-general-delta``) and once with a timed log of trials long
enough to grow their weight windows (``simulate-general-delta-logged``).
Logged runs also cover a budget of 0, a trial of 70,000 events, whose
log buffer doubles past 2**16 codes, and a budget of 10**12 events cut
short by the first meeting; 20,000 short trials (20 kernel calls of
1,024 trials), 2,500 short trials whose logged first trial's meeting
count joins those of three kernel calls, a single trial, whose meeting
table is one run of equal frequency, and a lone walker with neither a
log nor rows cover the meeting counts.  ``rwre`` runs its compiled loop
at shapes of 0.001, whose Beta draws often retry, at a budget of 1, at a
budget past int64 on chains that always return, outside the regime,
where many trials are cut at the budget, at a negative seed and one past
2**64, whose streams the kernel keys from the masked seed's key words,
and over 20,000 trials in one call.  ``urn-verify`` also runs below
a = 1, at a = 1.1 and delta = 0.3 (binary rationals with 2**-52-scale
denominators, so the kernels' integers grow large) and at a = delta =
10**6, both at horizon 6, then at horizon 11, with walkers 40 apart (a
site window of two ranges), at horizon 12, which it refuses (exit 2), and from a coincident
start at horizon 100,000, whose pass ends after one layer; ``polya`` runs
with its three-color urn, and ``criterion`` on a recurrent pair, on one
with a finite mean return time and on a pair whose quadrature fails
(exit 2).  The whole list takes about 40 seconds on a 2-vCPU VM.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAJ = ["--trajectory-out", "traj.jsonl"]
CONFIG = '{"trials": 60, "events": 1500, "r0": 3, "delta": 0.25, "stop_after_meetings": 2}'

# (name, CLI arguments, input files written into the run's directory)
COMMANDS = [
    ("simulate-fixed", ["simulate", "--n", "2", "--a", "1", "--delta", "0", "--l0", "0", "--r0",
                        "2", "--events", "10000", "--trials", "40", "--seed", "1"], {}),
    *((f"simulate-{trials}-stop-{stop}",
       ["simulate", "--trials", str(trials), "--events", "3000", "--stop-after-meetings",
        str(stop), "--seed", "5", "--out", "meetings.csv"], {})
      for trials in (40, 100, 1000) for stop in (1, 3, 1000)),
    ("simulate-coincident-stop-1", ["simulate", "--l0", "4", "--r0", "4", "--trials", "30",
                                    "--events", "100", "--stop-after-meetings", "1"], {}),
    ("simulate-delta-5", ["simulate", "--delta", "5", "--trials", "64", "--events", "5000"], {}),
    ("simulate-far-apart", ["simulate", "--r0", "1000000000000", "--trials", "50",
                            "--events", "500"], {}),
    ("simulate-one-walker", ["simulate", "--n", "1", "--trials", "3", "--events", "2000", *TRAJ],
     {}),
    ("simulate-one-walker-no-log", ["simulate", "--n", "1", "--trials", "3", "--events", "10"],
     {}),
    ("simulate-many-short-trials", ["simulate", "--trials", "20000", "--events", "10", "--seed",
                                    "1"], {}),
    ("simulate-many-short-trials-logged", ["simulate", "--trials", "2500", "--events", "10",
                                           "--stop-after-meetings", "3", *TRAJ], {}),
    ("simulate-one-trial", ["simulate", "--trials", "1", "--events", "3000", "--seed", "2"], {}),
    ("simulate-timestamps", ["simulate", "--trials", "40", "--events", "2000", "--timestamps",
                             *TRAJ, "--out", "meetings.csv"], {}),
    ("simulate-small-a", ["simulate", "--a", "0.5", "--trials", "40", "--events", "2000"], {}),
    ("simulate-general-delta", ["simulate", "--a", "0.3", "--delta", "0.7", "--trials", "40",
                                "--events", "3000", "--seed", "9"], {}),
    ("simulate-general-delta-logged", ["simulate", "--a", "0.3", "--delta", "0.7", "--trials",
                                       "5", "--events", "20000", "--timestamps", *TRAJ], {}),
    ("simulate-logged-past-log-buffer", ["simulate", "--delta", "0.5", "--trials", "2",
                                         "--events", "70000", *TRAJ], {}),
    ("simulate-zero-budget-logged", ["simulate", "--events", "0", *TRAJ], {}),
    ("simulate-stopped-huge-budget-logged", ["simulate", "--events", "1000000000000",
                                             "--stop-after-meetings", "1", *TRAJ], {}),
    ("couple", ["couple", "--trials", "50", "--events", "2000", "--seed", "3"], {}),
    ("couple-marginal-check", ["couple", "--trials", "20", "--events", "2000", "--seed", "7",
                               "--marginal-check", "--out", "couple.json"], {}),
    ("couple-small-a", ["couple", "--a", "0.5", "--allow-small-a", "--r0", "3", "--trials", "20",
                        "--events", "2000", "--seed", "7"], {}),
    ("couple-coincident", ["couple", "--l0", "2", "--r0", "2", "--trials", "10"], {}),
    ("rwre", ["rwre", "--budgets", "100,500", "--trials", "100", "--seed", "7"], {}),
    ("rwre-asymmetric", ["rwre", "--alpha1", "3", "--beta1", "1", "--alpha2", "2", "--beta2", "1",
                         "--budgets", "50,200,1000", "--trials", "200", "--out", "rwre.csv"], {}),
    ("rwre-tiny-shapes", ["rwre", "--alpha1", "0.001", "--beta1", "0.001", "--budgets",
                          "10,1000", "--trials", "200", "--seed", "3"], {}),
    ("rwre-budget-1", ["rwre", "--budgets", "1", "--trials", "50"], {}),
    ("rwre-budget-past-int64", ["rwre", "--alpha1", "1", "--beta1", "30", "--alpha2", "1",
                                "--beta2", "30", "--budgets", "5,18446744073709551621",
                                "--trials", "200"], {}),
    ("rwre-outside-cut", ["rwre", "--alpha1", "2", "--beta1", "0.5", "--alpha2", "2",
                          "--beta2", "0.5", "--budgets", "100,10000", "--trials", "100"], {}),
    ("rwre-huge-seed", ["rwre", "--budgets", "10,1000", "--trials", "100", "--seed",
                        "18446744073709551621"], {}),
    ("rwre-negative-seed", ["rwre", "--budgets", "10,1000", "--trials", "100", "--seed", "-3"],
     {}),
    ("rwre-many-trials", ["rwre", "--trials", "20000", "--budgets", "10,100"], {}),
    ("urn-verify-h7", ["urn-verify", "--horizon", "7"], {}),
    ("urn-verify-small-a", ["urn-verify", "--a", "0.5", "--allow-small-a", "--horizon", "5"], {}),
    ("urn-verify-binary-rationals", ["urn-verify", "--a", "1.1", "--delta", "0.3", "--horizon",
                                     "6"], {}),
    ("urn-verify-huge-weights", ["urn-verify", "--a", "1e6", "--delta", "1e6", "--horizon", "6"],
     {}),
    *((f"urn-verify-{name}", ["urn-verify", "--a", "2", "--delta", "0.5", "--r0", r0,
                              "--horizon", horizon], {})
      for name, r0, horizon in (("h11", "3", "11"), ("two-ranges", "40", "9"),
                                ("h12-refused", "3", "12"))),
    ("urn-verify-coincident-deep", ["urn-verify", "--l0", "0", "--r0", "0", "--horizon",
                                    "100000"], {}),
    ("criterion", ["criterion", "--pair", "1", "2", "--pair", "3", "2"], {}),
    ("criterion-classes", ["criterion", "--pair", "2", "2", "--pair", "3", "0.5", "--pair", "0.5",
                           "1.5"], {}),
    ("criterion-huge-shapes", ["criterion", "--pair", "1e8", "3e8"], {}),
    ("polya", ["polya", "--draws", "200", "--runs", "200", "--ks-threshold", "0.1", "--seed",
               "3"], {}),
    ("polya-three-color", ["polya", "--draws", "200", "--runs", "200", "--ks-threshold", "0.1",
                           "--three-color", "--seed", "3"], {}),
    ("simulate-config", ["simulate", "--config", "cfg.json", "--seed", "9"],
     {"cfg.json": CONFIG}),
]


def run(src: Path, args: list[str], inputs: dict[str, str]) -> dict[str, bytes | int]:
    """Run the CLI on package source ``src`` in a fresh directory: its exit
    code, stdout, stderr and every file the directory then holds."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "reinforce_sim.cli", *args], cwd=tmp,
                              env=env, capture_output=True, check=False)
        files = {f"file {p.name}": p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr} | files


def differences(this_src: Path, other_src: Path, args: list[str],
                inputs: dict[str, str]) -> list[str]:
    """What differs between the two trees' runs of one command."""
    mine, theirs = run(this_src, args, inputs), run(other_src, args, inputs)
    return [key for key in sorted(mine.keys() | theirs.keys()) if mine.get(key) != theirs.get(key)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_bytes.py OTHER_TREE", file=sys.stderr)
        return 2
    this_src = Path(__file__).resolve().parent.parent / "src"
    other_src = Path(argv[0]) / "src"
    if not (other_src / "reinforce_sim").is_dir():
        print(f"no src/reinforce_sim under {argv[0]}", file=sys.stderr)
        return 2
    differ = 0
    for name, args, inputs in COMMANDS:
        found = differences(this_src, other_src, args, inputs)
        differ += bool(found)
        print(f"{'DIFF' if found else 'same'}  {name}" + (f": {', '.join(found)}" if found else ""),
              flush=True)
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
