"""Every module-level private name of the package is used somewhere in it.

A private helper (``_x``, not a dunder) that lost its last caller, say
when its rule moved to a shared check, is dead code; this ``ast`` check
finds it. A name counts as used when any module of the package reads it,
imports it, or reaches it as an attribute.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "proxdeconv"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name no module uses."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used)


def test_every_private_name_is_used():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_a_dead_helper_is_reported():
    sources = {
        "a": ("_LIMIT = 3\n"
              "def _used(x):\n    return x < _LIMIT\n"
              "def _dead(x):\n    return -x\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"),
        "b": "from .a import _used\ndef check(x):\n    return _used(x)\n",
    }
    assert dead_private_names(sources) == ["a._dead"]
