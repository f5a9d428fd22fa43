"""``tools/mutants.py``, the mutant check, on a toy tree and on its own table."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TOY_TEST = "tests/test_toy.py"


@pytest.fixture
def toy(tmp_path):
    """A tree with one function and one test of it."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def add(a, b):\n    return a + b\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / TOY_TEST).write_text("from toy import add\n\n\n"
                                     "def test_add():\n    assert add(2, 3) == 5\n")
    (tmp_path / "pyproject.toml").write_text("[tool.pytest.ini_options]\n")
    return tmp_path


def toy_mutant(name, new, old="a + b"):
    return mutants.Mutant(name, "src/toy.py", old, new, (TOY_TEST,))


@pytest.mark.parametrize("old", ["a * b", "a"], ids=["absent", "twice"])
def test_a_text_not_found_exactly_once_is_refused(toy, old):
    with pytest.raises(ValueError, match="occurs"):
        mutants.survives(toy, toy_mutant("bad", "a", old=old))


@pytest.mark.parametrize("survivors,wrong", [
    ({}, 1),
    ({"swapped": "addition commutes"}, 0),
    ({"swapped": "addition commutes", "minus": "claimed to live"}, 1),
], ids=["new-survivor", "known-survivor", "known-survivor-killed"])
def test_the_exit_code_says_whether_the_table_holds(toy, capsys, survivors, wrong):
    # the test sees a - b and cannot see b + a
    rows = [toy_mutant("minus", "a - b"), toy_mutant("swapped", "b + a")]
    assert mutants.check(toy, rows, survivors) == (1 if wrong else 0)
    assert capsys.readouterr().out.splitlines() == [
        "killed  minus" + " (a known survivor, now killed)" * ("minus" in survivors),
        "alive  swapped" + (" (known: addition commutes)" if survivors else " (NEW SURVIVOR)"),
        f"{wrong} of 2 mutants disagree with the table"]
    assert (toy / "src" / "toy.py").read_text().count("a + b") == 1  # the tree is untouched


def test_a_kernel_library_that_does_not_build_is_an_error_not_a_kill(toy):
    broken = 'raise RuntimeError("building the kernel library failed: cc exited with 1")'
    with pytest.raises(RuntimeError, match="does not build"):
        mutants.survives(toy, toy_mutant("unbuilt", broken, old="return a + b"))


def test_a_tree_failing_its_tests_unmutated_is_refused(toy):
    (toy / "src" / "toy.py").write_text("def add(a, b):\n    return a * b\n")
    assert mutants.check(toy, [toy_mutant("minus", "a - b", old="a * b")], {}) == 2


def test_named_rows_run_alone(toy, capsys, monkeypatch):
    monkeypatch.setattr(mutants, "ROOT", toy)
    monkeypatch.setattr(mutants, "MUTANTS", [toy_mutant("minus", "a - b"),
                                             toy_mutant("swapped", "b + a")])
    monkeypatch.setattr(mutants, "SURVIVORS", {})
    assert mutants.main(["minus"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "killed  minus", "0 of 1 mutants disagree with the table"]


@pytest.mark.parametrize("names", [["no-such-row"], [mutants.MUTANTS[0].name, "no-such-row"]],
                         ids=["unknown", "known-and-unknown"])
def test_a_name_not_in_the_table_exits_2_with_the_usage_line(capsys, names):
    assert mutants.main(names) == 2  # before any row runs
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["usage: python3 tools/mutants.py [NAME ...]",
                                "no such row: no-such-row"]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_row_of_the_table_finds_its_text_once_in_this_tree(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)
