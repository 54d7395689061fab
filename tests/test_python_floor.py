"""Every module of the package and of its tests parses at the declared
Python floor.

``pyproject.toml`` declares the oldest Python the package runs on, and CI
runs a newer one, where syntax newer than the floor (``except*``, say)
would pass unnoticed. This ``ast`` check parses each file with the floor's
grammar. It reads the floor with a regex: 3.10 has no ``tomllib``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(str(p.relative_to(ROOT)) for folder in ("src/proxdeconv", "tests")
               for p in (ROOT / folder).glob("*.py"))


def declared_floor(pyproject: str) -> tuple[int, int]:
    """(major, minor) of the ``requires-python = ">=X.Y"`` line."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject, re.M)
    assert found is not None, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


FLOOR = declared_floor((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def too_new(source: str, floor: tuple[int, int] = FLOOR) -> str | None:
    """Why ``source`` does not parse with ``floor``'s grammar, or None."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as error:
        return f"line {error.lineno}: {error.msg}"
    return None


@pytest.mark.parametrize("path", FILES)
def test_every_file_parses_at_the_floor(path):
    assert too_new((ROOT / path).read_text(encoding="utf-8")) is None


def test_the_floor_is_read_from_its_line():
    assert declared_floor('[project]\nname = "x"\nrequires-python = ">=3.10"\n') \
        == (3, 10)


def test_except_star_is_reported():
    handler = "try:\n    pass\nexcept{} ValueError:\n    pass\n"
    assert too_new(handler.format(""), (3, 10)) is None
    assert too_new(handler.format("*"), (3, 10)) is not None
