"""Workloads of the reinforce-sim benchmark and the checks on their outputs.

A workload is a list of CLI commands, one *pass*, that the benchmark
repeats with a fresh seed per pass until the run length is used up.  Each
command's standard output goes through the checker of its subcommand,
which raises :class:`CheckError` on a wrong result and otherwise returns
the work the command did, in the workload's unit of work.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from reinforce_sim.baselines import DIFFERENCE_RECURRENCE_PILOT, regression_threshold

# Mean jump events per coupled run over the 12-point grid (seeds 2026, 1, 2
# and 3, 200 runs per point).  couple-grid quotes wall_s at this much work
# per run, because the raw pass time follows the heavy-tailed meeting times
# of its seed (see README.md).
NOMINAL_EVENTS_PER_RUN = 250

COUPLE_GRID = [(a, delta, gap) for a in (1, 2) for delta in (0, 0.5) for gap in (1, 2, 3)]
RWRE_BUDGETS = (100, 1000, 10000)


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    # pass seed -> argv of each command of the pass
    commands: Callable[[int], list[list[str]]]
    # work of one pass at which wall_s is quoted; None quotes the mean pass
    nominal_work: float | None
    # passes in each round of a traced run; fixed, so traced counts repeat
    trace_passes: int


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = [ln for ln in out.split("\r\n") if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"expected CSV header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def check_couple(argv: list[str], out: str) -> int:
    """Zero ordering violations and every run within the event budget."""
    budget, trials = int(_opt(argv, "--events")), int(_opt(argv, "--trials"))
    lines = out.splitlines()
    if "meta" not in json.loads(lines[0]):
        raise CheckError("first JSONL line is not the meta record")
    runs = [json.loads(ln) for ln in lines[1:]]
    if len(runs) != trials:
        raise CheckError(f"{len(runs)} run records for {trials} trials")
    for run in runs:
        if run["violations"] != 0:
            raise CheckError(f"ordering violation in run {run}")
        if not 0 < run["events"] <= budget:
            raise CheckError(f"events {run['events']} outside (0, {budget}]")
    return sum(run["events"] for run in runs)


def check_simulate(argv: list[str], out: str) -> int:
    """Meeting frequencies that do not increase with k."""
    rows = _csv_rows(out, "k,frequency,stderr")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise CheckError("meeting rows are not k = 1, 2, ...")
    freqs = [float(r[1]) for r in rows]
    if any(b > a for a, b in zip(freqs, freqs[1:])):
        raise CheckError("meeting frequency increases with k")
    return int(_opt(argv, "--trials")) * int(_opt(argv, "--events"))


def check_urn_verify(argv: list[str], out: str) -> int:
    """TV distance exactly 0 and the equivalence certified."""
    report = json.loads(out.splitlines()[0])
    if report["tv_distance"] != 0.0 or report["equivalent"] is not True:
        raise CheckError(f"urn and direct laws differ: tv={report['tv_distance']!r}")
    return report["trajectories_direct"] + report["trajectories_urn"]


def check_rwre(argv: list[str], out: str) -> int:
    """Hit fractions that do not decrease, the last one above the pilot
    regression threshold at budget 10000."""
    rows = _csv_rows(out, "budget,hit_fraction,stderr")
    if tuple(int(r[0]) for r in rows) != RWRE_BUDGETS:
        raise CheckError("curve budgets differ from the command's")
    fracs = [float(r[1]) for r in rows]
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        raise CheckError("hit fraction decreases with the budget")
    floor = regression_threshold(DIFFERENCE_RECURRENCE_PILOT[10000])
    if fracs[-1] < floor:
        raise CheckError(f"hit fraction {fracs[-1]} at budget 10000 below {floor}")
    return int(_opt(argv, "--trials"))


CHECKS = {
    "couple": check_couple,
    "simulate": check_simulate,
    "urn-verify": check_urn_verify,
    "rwre": check_rwre,
}


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    if name == "couple-grid":
        runs, budget = (2, 1000) if tiny else (25, 10000)

        def commands(seed: int) -> list[list[str]]:
            return [
                ["couple", "--a", str(a), "--delta", str(delta), "--l0", "0", "--r0", str(gap),
                 "--events", str(budget), "--trials", str(runs), "--seed", str(seed * 100 + i)]
                for i, (a, delta, gap) in enumerate(COUPLE_GRID)
            ]
        return Workload(name, commands, len(COUPLE_GRID) * runs * NOMINAL_EVENTS_PER_RUN, 2)
    if name == "simulate-fixed":
        trials, budget = (2, 1000) if tiny else (40, 10000)

        def commands(seed: int) -> list[list[str]]:
            return [["simulate", "--n", "2", "--a", "1", "--delta", "0", "--l0", "0", "--r0", "2",
                     "--events", str(budget), "--trials", str(trials), "--seed", str(seed)]]
        return Workload(name, commands, None, 2)
    if name == "urn-verify-h7":
        horizon = 3 if tiny else 7

        def commands(seed: int) -> list[list[str]]:
            return [["urn-verify", "--a", "2", "--delta", "0.5", "--l0", "0", "--r0", "3",
                     "--horizon", str(horizon), "--out", "-"]]
        return Workload(name, commands, None, 1)
    if name == "rwre-difference":
        trials = 1000 if tiny else 5000

        def commands(seed: int) -> list[list[str]]:
            return [["rwre", "--alpha1", "0.5", "--beta1", "1.5", "--alpha2", "0.5",
                     "--beta2", "1.5", "--budgets", ",".join(map(str, RWRE_BUDGETS)),
                     "--trials", str(trials), "--seed", str(seed)]]
        return Workload(name, commands, None, 2)
    raise KeyError(name)


NAMES = ("couple-grid", "simulate-fixed", "urn-verify-h7", "rwre-difference")
