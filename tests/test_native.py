"""The compiled library's one owner: how ``native`` builds and caches it,
and that no module of the package reaches into another's private names."""
import ast
import re
from pathlib import Path

import pytest

import reinforce_sim
from reinforce_sim import native

PACKAGE = Path(reinforce_sim.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``module:name`` of each private name that ``path`` imports from a
    sibling module by ``from .module import name``."""
    return [f"{node.module}:{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


class TestStructure:
    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
    def test_no_module_imports_another_modules_private_names(self, path):
        assert private_imports(path) == []


class TestBuild:
    """How the kernel library is built, cached and loaded."""

    def test_the_flags_keep_each_floating_point_operation_as_written(self):
        # both entries promise numpy's bits, which any -O level keeps only
        # while no multiply and add fuse and no fast-math rule applies
        assert "-ffp-contract=off" in native._CFLAGS
        unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-ffinite-math-only"}
        assert unsafe.isdisjoint(native._CFLAGS)

    def test_a_library_built_from_other_source_is_never_loaded(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        other = tmp_path / "other.c"  # a kernel that adds 2 per traversal
        other.write_text(native._SOURCE.read_text().replace("+= 1.0", "+= 2.0"))
        source = native._SOURCE
        monkeypatch.setattr(native, "_SOURCE", other)
        built = native._library(cache)._name
        monkeypatch.setattr(native, "_SOURCE", source)
        loaded = native._library(cache)._name
        assert loaded != built
        # the new build removed the one from the other source
        assert [p.name for p in cache.iterdir()] == [Path(loaded).name]
        assert native._library(cache)._name == loaded  # a second load builds nothing

    def test_a_build_removes_only_libraries_of_other_hashes(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "kernels-0123456789abcdef.so").write_bytes(b"an old library")
        # a directory cannot be unlinked: the OSError is ignored
        (cache / "kernels-fedcba9876543210.so").mkdir()
        # a concurrent build's temporary file, and names of other forms
        kept = ["tmpa1b2c3d4.so", "kernels-0123.so", "kernels-0123456789ABCDEF.so",
                "kernels-0123456789abcdef.so.bak"]
        for name in kept:
            (cache / name).write_bytes(b"")
        loaded = Path(native._library(cache)._name).name
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [loaded, "kernels-fedcba9876543210.so", *kept])

    def test_an_unwritable_cache_builds_in_a_temporary_directory(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("")
        library = native._library(blocked / "cache")  # no directory can be made in a file
        assert not Path(library._name).exists()  # removed once loaded
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("compiler,text,stderr", [
        ("false", None, ""), ("cc", "#error a broken kernel\n", "a broken kernel")])
    def test_a_failed_build_names_the_command_and_its_stderr(self, monkeypatch, tmp_path,
                                                             compiler, text, stderr):
        monkeypatch.setattr(native, "_CC", compiler)
        if text is not None:
            broken = tmp_path / "broken.c"
            broken.write_text(text)
            monkeypatch.setattr(native, "_SOURCE", broken)
        cache = tmp_path / "cache"
        command = " ".join([compiler, *native._CFLAGS])
        with pytest.raises(RuntimeError,
                           match=f"{re.escape(command)} -x c - -o .* exited with 1") as err:
            native._library(cache)
        assert stderr in str(err.value)
        assert list(cache.iterdir()) == []  # no library and no temporary file left
