"""``tools/same_bytes.py``, the byte check of the CLI between two checkouts."""
import importlib.util
import shutil
from pathlib import Path

import pytest

import reinforce_sim

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)
COMMANDS = {name: (args, inputs) for name, args, inputs in same_bytes.COMMANDS}


@pytest.mark.parametrize("name", ["simulate-coincident-stop-1", "simulate-config"])
def test_this_tree_writes_the_same_bytes_as_itself(name):
    assert same_bytes.differences(ROOT / "src", ROOT / "src", *COMMANDS[name]) == []


def test_a_tree_with_another_version_differs(tmp_path):
    # the version heads every output, so only the stdout of the run differs
    package = tmp_path / "src" / "reinforce_sim"
    shutil.copytree(ROOT / "src" / "reinforce_sim", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = package / "__init__.py"
    version = reinforce_sim.__version__
    init.write_text(init.read_text().replace(f'"{version}"', f'"{version}.dev0"'))
    assert same_bytes.differences(ROOT / "src", tmp_path / "src",
                                  *COMMANDS["simulate-config"]) == ["stdout"]
