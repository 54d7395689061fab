"""No line of the package or its tests runs past 100 characters.

No linter ships with the package, so this check stands in for one, as the
``ast`` checks of ``test_imports.py`` and ``test_private_names.py`` do.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIMIT = 100


def long_lines(text: str, limit: int = LIMIT) -> list[int]:
    """The 1-based numbers of the lines longer than ``limit`` characters."""
    return [i for i, line in enumerate(text.splitlines(), 1) if len(line) > limit]


def test_no_line_is_too_long():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = {str(p.relative_to(ROOT)): long_lines(p.read_text(encoding="utf-8"))
             for p in files}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_a_long_line_is_reported():
    text = "short\n" + "x" * 100 + "\n" + "y" * 101 + "\n"
    assert long_lines(text) == [3]
