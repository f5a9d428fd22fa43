"""Source lines of ``src/reinforce_sim``: per module, the lines that are
neither blank nor comment-only (docstrings count), then the total.

Run from the root of a checkout: ``python3 tools/sloc.py``.
"""
from pathlib import Path


def sloc(path: Path) -> int:
    """Lines of ``path`` that hold something other than whitespace and a comment."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "reinforce_sim"
    counts = {path.name: sloc(path) for path in sorted(package.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
