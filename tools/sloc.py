"""Source lines of ``src/reinforce_sim``: per module, Python or C, the
lines that are neither blank nor comment-only (docstrings count), then
the total.

Run from the root of a checkout: ``python3 tools/sloc.py``.
"""
import re
from pathlib import Path

# a C comment, /* ... */ or // to the end of the line
C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)


def sloc(path: Path) -> int:
    """Lines of ``path`` that hold something other than whitespace and a comment."""
    text = path.read_text()
    if path.suffix == ".c":  # a comment gives way to the line breaks it held
        text = C_COMMENT.sub(lambda m: "\n" * m.group().count("\n"), text)
        return sum(1 for line in text.splitlines() if line.strip())
    lines = (line.strip() for line in text.splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "reinforce_sim"
    paths = sorted([*package.glob("*.py"), *package.glob("*.c")])
    counts = {path.name: sloc(path) for path in paths}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
