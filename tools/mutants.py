"""Check that the tests kill each mutant of a committed table.

Run from the root of a checkout: ``python3 tools/mutants.py [NAME ...]``,
which runs the rows named, or every row when none is.

Each row of ``MUTANTS`` names a file of the tree, an exact text that
occurs in it once, the text that replaces it, and the tests that should
fail on the result.  For each row, the tree's ``src``, ``tests`` and
``pyproject.toml`` are copied to a temporary directory, the row is
applied there and its tests run there as ``python -m pytest -q -x``; a
C mutant is built under its own hash in the copy's ``__pycache__``.  The
mutant is killed when a test fails, the run crashes or it outlasts
``TIMEOUT``, and alive when every test passes.  First the
unmutated copy runs all the rows' tests, which must pass.  ``SURVIVORS``
holds the mutants known to live, each with its reason.  One line per
mutant says ``killed`` or ``alive``; the exit code is 1 on a new survivor
or on a known one that is now killed, and 2 if a row's text does not
occur exactly once or the unmutated copy fails.  A mutant whose kernel
library does not build stops the run with an error; it is not killed.
Each test run may map at most ``MEMORY`` bytes.  The 41 rows (23 of
``kernels.c``, 10 of ``urn_process.py``, 3 of ``direct.py``, 2 of ``cli.py``,
2 of ``coupling.py`` and 1 of ``rwre.py``; 3 known survivors) take two to
three and a half minutes on a shared 2-vCPU VM.  Naming rows runs only those, after the unmutated
copy passes their tests; a name not in the table exits 2.

Mutants of code that is gone or moved to C have no row: those of the
Python event loop that once drew each direct trial's uniforms and sized
its log buffer, and those of the per-trial records that ``simulate`` and
``run_direct_batch`` once built and yielded one at a time.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# seconds a mutant's test run may take before the mutant counts as killed
TIMEOUT = 900
# bytes of address space a test run may map: a mutant whose memory grows
# without bound fails an allocation at this size and is killed
MEMORY = 1 << 30


class Mutant(NamedTuple):
    """One mutant: ``old``, found once in the tree's file ``path``, becomes
    ``new``, and one of ``tests`` (files or node ids) should then fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


KERNELS = "src/reinforce_sim/kernels.c"
DIRECT = "src/reinforce_sim/direct.py"
RWRE = ("tests/test_rwre.py::TestDifferenceRecurrence",)
TWIN = ("tests/test_distributions.py::TestPhiloxTwin", *RWRE)
MOVER = ("tests/test_direct.py::TestRunDirect",)
ENGINE = ("tests/test_direct.py::TestEngine",)
BATCH = ("tests/test_direct.py::TestRunDirectBatch",)
STATISTICS = ("tests/test_direct.py::TestMeetingStatistics",)
URN_PROCESS = "src/reinforce_sim/urn_process.py"
INT_KERNELS = ("tests/test_urn_process.py::TestIntegerKernels",)
ENUMERATION = ("tests/test_urn_process.py::TestEnumeration",)
URN_EQUIVALENCE = ("tests/test_urn_process.py::TestUrnEquivalenceAtEveryHorizon",)
COUPLED_STEP = ("tests/test_coupling.py::TestCoupledStep",)

MUTANTS = [
    # the two-way picks read from one word's top bit
    Mutant("chain-pick-bit-62", KERNELS, "int c = (int)(philox_word(walk) >> 63);",
           "int c = (int)(philox_word(walk) >> 62);", RWRE),
    Mutant("mover-pick-bit-62", KERNELS, "philox_word(&s)) >> 63) & (n - 1)",
           "philox_word(&s)) >> 62) & (n - 1)", MOVER),
    Mutant("mover-second-word", KERNELS, "(rng ? rng->next_uint64(rng->state) : philox_word(&s))",
           "(rng ? (rng->next_uint64(rng->state), rng->next_uint64(rng->state))"
           " : (philox_word(&s), philox_word(&s)))", MOVER),
    # the Philox twin
    Mutant("counter-after-block", KERNELS,
           "    for (int i = 0; i < 4 && ++s->counter[i] == 0; i++)\n        ;\n"
           "    uint64_t x[4] = {s->counter[0], s->counter[1], s->counter[2], s->counter[3]};\n",
           "    uint64_t x[4] = {s->counter[0], s->counter[1], s->counter[2], s->counter[3]};\n"
           "    for (int i = 0; i < 4 && ++s->counter[i] == 0; i++)\n        ;\n", TWIN),
    Mutant("round-constant", KERNELS, "0xD2E7470EE14C6C93ULL", "0xD2E7470EE14C6C95ULL",
           TWIN),
    Mutant("no-key-bump", KERNELS, "k0 += 0x9E3779B97F4A7C15ULL;", "", TWIN),
    Mutant("buffer-pos-0-after-block", KERNELS, "s->buffer_pos = 1;", "s->buffer_pos = 0;",
           TWIN),
    Mutant("buffer-bound-3", KERNELS, "s->buffer_pos < 4 ?", "s->buffer_pos < 3 ?", TWIN),
    Mutant("keyed-buffer-pos-3", KERNELS, "{0, 0, 0, 0}, 4, 0, 0}",
           "{0, 0, 0, 0}, 3, 0, 0}", RWRE),
    # the Beta draw and the first-return loop
    Mutant("no-gamma-retry", KERNELS, "} while (x + y == 0.0);", "} while (0);", RWRE),
    Mutant("gamma-y-before-x", KERNELS,
           "x = random_standard_gamma(rng, alpha);\n        y = random_standard_gamma(rng, beta);",
           "y = random_standard_gamma(rng, beta);\n        x = random_standard_gamma(rng, alpha);",
           RWRE),
    Mutant("first-return-late", KERNELS, "first = e;", "first = e + 1;", RWRE),
    Mutant("budget-bound-short", KERNELS, "e <= budget && !first", "e < budget && !first",
           RWRE),
    Mutant("rwre-budget-unclamped", "src/reinforce_sim/rwre.py",
           "min(max_budget, MAX_INT64)", "max_budget", RWRE),
    # the direct trials: windows, keys, meetings and log codes
    Mutant("window-doubled-wrong-side", KERNELS,
           "failed = cover(win, home, n, i, v->lo, v->lo + 2 * v->width, a);",
           "failed = cover(win, home, n, i, v->lo - v->width, v->lo + v->width, a);", ENGINE),
    Mutant("no-merge-when-windows-touch", KERNELS, "            parts[1] = other;",
           "            parts[1] = NULL;", ENGINE),
    Mutant("trial-counter-without-t0", KERNELS, "{key0, key1}, t0 + (uint64_t)t, 0);",
           "{key0, key1}, (uint64_t)t, 0);", BATCH),
    # walkers in windows apart stand at equal offsets from their windows'
    # starts without coinciding
    Mutant("meeting-while-windows-apart", KERNELS, "meetings += p[0] == p[1];",
           "meetings += p[0] - lo[0] == p[1] - lo[1];", ENGINE),
    # a window that grows, or merges, moves the other walker's weights too
    Mutant("only-mover-placed-after-growth", KERNELS,
           "place(win, home, x, n, p, lo, hi);  /* a merge frees the other's window */",
           "lo[i] = win[home[i]].w, hi[i] = lo[i] + win[home[i]].width,\n"
           "                p[i] = lo[i] + (x[i] - win[home[i]].lo);", ENGINE),
    # the step decided by the product u * den: alone, without its band
    # around num, or without its guard against underflow
    Mutant("step-by-product-alone", KERNELS,
           "m >= 0x1p-900 && fabs(m - num) > num * 0x1p-40 ? m < num : u < num / den",
           "m < num", MOVER),
    Mutant("step-without-band", KERNELS, "m >= 0x1p-900 && fabs(m - num) > num * 0x1p-40 ?",
           "m >= 0x1p-900 ?", MOVER),
    Mutant("step-without-underflow-guard", KERNELS, "m >= 0x1p-900 && fabs(", "fabs(", MOVER),
    Mutant("log-code-wrong-walker-bit", KERNELS, "(int8_t)(2 * i + right)",
           "(int8_t)(2 * (i ^ 1) + right)", MOVER),
    # meeting_statistics' runs of equal frequency, read from the histogram
    Mutant("run-range-short", DIRECT, "range(first, last + 1)", "range(first, last)",
           STATISTICS),
    Mutant("run-counts-numpy", DIRECT, "hits[ends].tolist()", "hits[ends]", STATISTICS),
    Mutant("last-run-dropped", DIRECT, "np.diff(hits, append=0)", "np.diff(hits)",
           STATISTICS),
    # simulate's histogram: a block's counts replace the total, not add to it
    Mutant("block-histogram-overwrites", "src/reinforce_sim/cli.py",
           "hist = counts + np.pad(hist, (0, counts.size - hist.size))", "hist = counts",
           ("tests/test_cli.py::TestSimulate",)),
    # the law of the meeting count: a meeting counted only when the right
    # walker moves
    Mutant("meeting-only-when-right-walker-moves", KERNELS,
           "meetings += p[0] == p[1];", "meetings += i == 1 && p[0] == p[1];",
           ("tests/test_urn_process.py::TestMeetingCountLaw",)),
    # the exact pass: its integer kernels, the initial masses and the packed keys
    Mutant("family-marbles-one-per-jump", URN_PROCESS, "red += (2 * lj + left_present) * unit",
           "red += (lj + left_present) * unit", INT_KERNELS),
    Mutant("total-without-chameleon", URN_PROCESS, "(red + blue) // g",
           "(red + blue - unit) // g", INT_KERNELS),
    Mutant("direct-denominator-without-delta", URN_PROCESS, "(right + left) // g",
           "(right + left - delta) // g", INT_KERNELS),
    Mutant("red-mass-half-up-at-l0", URN_PROCESS, "return a - 1, a + d\n",
           "return a - 1 + num(1) / 2, a + d\n",
           ("tests/test_urn_process.py::TestUrnEquivalenceAtEveryHorizon",)),
    Mutant("packed-field-two-bits-narrower", URN_PROCESS, "width = radius.bit_length()\n",
           "width = max(radius.bit_length() - 2, 0)\n", ENUMERATION),
    Mutant("packed-field-one-bit-narrower", URN_PROCESS, "width = radius.bit_length()\n",
           "width = max(radius.bit_length() - 1, 0)\n", ("tests/test_urn_process.py",)),
    # the exact pass's step table: its key without the mover bit or without
    # v + 1's left jumps, and an entry that takes every move as agreeing;
    # the site window numbered as one range across any gap
    Mutant("step-key-without-mover", URN_PROCESS, "(k | mover) << 2", "k << 2",
           (*ENUMERATION, *URN_EQUIVALENCE)),
    Mutant("step-key-without-right-neighbour", URN_PROCESS, "(1 << 4 * width) - 1",
           "(1 << 3 * width) - 1", (*ENUMERATION, *URN_EQUIVALENCE)),
    Mutant("step-always-agrees", URN_PROCESS, "steps[at] = qn * pd == (pd - pn) * qd,",
           "steps[at] = True,", ENUMERATION),
    Mutant("window-spans-the-gap", URN_PROCESS, "    if r0 - l0 <= 2 * radius + 1:\n",
           "    if True:\n",
           ("tests/test_urn_process.py::TestEnumeration::test_keys_do_not_grow_with_the_gap",)),
    # the coupled quadruple's event: a coincident pair that a family marble
    # no longer splits, and the free lP walker's clock taking rP's share
    Mutant("family-marble-keeps-pair-together", "src/reinforce_sim/coupling.py",
           "lP = l + 1 if pure and right else l - 1", "lP = l + 1 if right else l - 1",
           COUPLED_STEP),
    Mutant("group-pick-boundary-moved", "src/reinforce_sim/coupling.py",
           "elif x < 3 and l_free:", "elif x < 4 and l_free:", COUPLED_STEP),
    # couple's environments keyed by (seed, t) with no role reuse the dynamics' bits
    Mutant("couple-environment-without-role", "src/reinforce_sim/cli.py",
           "trial_streams(seed, trials, ENVIRONMENT))", "trial_streams(seed, trials))",
           ("tests/test_cli.py::TestCouple",)),
]

# name -> why the tests cannot kill it
SURVIVORS: dict[str, str] = {
    "packed-field-one-bit-narrower":
        "equivalent: a field holds at most (depth + 1) // 2 jumps, which fits in one bit "
        "fewer at every depth the kernels read; the last layer's overflow only merges "
        "absorbed nodes, whose sums are linear, in layers of at most 1,024 states (depths "
        "1, 3 and 7; MAX_LIVE_STATES refuses every pass before depth 15)",
    # the net-flow lemma (TestUrnEquivalenceAtEveryHorizon): before the meeting,
    # rj(u) - lj(u + 1) is the net flow F(u) across [u, u + 1], and F(v - 1) and
    # F(v) depend only on v's site class and on which walker stands at v
    "step-key-without-mover":
        "equivalent: F(v - 1) = rj(v - 1) - lj(v) is one more with the left walker at v "
        "than with the right one, so the four jump fields tell the walkers apart",
    "step-key-without-right-neighbour":
        "equivalent: lj(v + 1) = rj(v) - F(v), and v's field number and the mover bit "
        "fix F(v), so the rest of the key fixes v + 1's left jumps",
}


def copy_tree(root: Path, dest: Path) -> None:
    """Copy ``root``'s ``src``, ``tests`` and ``pyproject.toml`` to ``dest``."""
    for name in ("src", "tests"):
        shutil.copytree(root / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(root / "pyproject.toml", dest / "pyproject.toml")


def passes(tree: Path, tests) -> bool:
    """Whether ``tests`` pass in ``tree``: True if all pass, False if one
    fails, the run crashes or it outlasts ``TIMEOUT``, in ``MEMORY`` bytes
    of address space.  A kernel library
    that does not build, or an error of pytest itself (a bad node id,
    nothing collected), raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, check=False,
                              timeout=TIMEOUT, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    if b"building the kernel library failed" in done.stdout:
        raise RuntimeError(f"the kernel library does not build: {done.stdout[-2000:]}")
    if done.returncode in (0, 1) or done.returncode < 0:
        return done.returncode == 0
    raise RuntimeError(f"pytest exited with {done.returncode}: "
                       f"{done.stdout.decode(errors='replace')[-2000:]}")


def _limit_memory() -> None:
    """Cap the address space of the test run about to start at ``MEMORY``."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def survives(root: Path, mutant: Mutant) -> bool:
    """Whether ``mutant`` of the tree at ``root`` passes its tests; a
    ``ValueError`` if its text does not occur exactly once."""
    text = (root / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}")
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(root, Path(tmp))
        (Path(tmp) / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        return passes(Path(tmp), mutant.tests)


def check(root: Path, mutants: list[Mutant], survivors: dict[str, str]) -> int:
    """Run ``mutants`` on the tree at ``root``, print one line each and
    return the exit code."""
    tests = list(dict.fromkeys(test for mutant in mutants for test in mutant.tests))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(root, Path(tmp))
        if not passes(Path(tmp), tests):
            print("the unmutated tree fails its tests", file=sys.stderr)
            return 2
    wrong = 0
    for mutant in mutants:
        try:
            alive = survives(root, mutant)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        known = mutant.name in survivors
        wrong += alive != known
        note = f" (known: {survivors[mutant.name]})" if alive and known else \
            " (NEW SURVIVOR)" if alive else " (a known survivor, now killed)" if known else ""
        print(f"{'alive' if alive else 'killed'}  {mutant.name}{note}", flush=True)
    print(f"{wrong} of {len(mutants)} mutants disagree with the table")
    return 1 if wrong else 0


def main(argv: list[str]) -> int:
    """Run the rows named in ``argv``, in the table's order, or every row."""
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print("usage: python3 tools/mutants.py [NAME ...]", file=sys.stderr)
        print(f"no such row: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return check(ROOT, [mutant for mutant in MUTANTS if not argv or mutant.name in argv],
                 SURVIVORS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
