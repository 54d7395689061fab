"""Every name a module of the package imports is used in that module.

No linter ships with the package, so this ``ast`` check stands in for one.
``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "proxdeconv"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A quoted annotation, such as -> "Image", reads the names it spells.
    for node in ast.walk(tree):
        note = getattr(node, "returns" if isinstance(node, ast.FunctionDef)
                       else "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            quoted = ast.parse(note.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .errors import DimensionMismatchError, DomainError\n"
              "def f(x) -> \"math.inf\":\n"
              "    raise DomainError(0, 'x')\n")
    assert unused_imports(source) == ["DimensionMismatchError"]
