"""Every private name of the package is used somewhere in it.

A private helper (``_x``, not a dunder) that lost its last caller, say
when its rule moved to a shared check, is dead code; this ``ast`` check
finds it. A module-level name counts as used when any module of the
package reads it, imports it, or reaches it as an attribute. A private
``__slots__`` entry counts as used only when some module reads it as an
attribute: one that is only ever assigned is a leftover field.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "proxdeconv"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name no module uses,
    and ``module.Class.name`` for each private slot no module reads."""
    defined, slots, used, read = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        slots += [(module, cls.name, name) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  for name in _slots(cls) if _is_private(name)]
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
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    dead = [f"{module}.{name}" for module, name in defined if name not in used]
    dead += [f"{module}.{cls}.{name}" for module, cls, name in slots
             if name not in read]
    return sorted(dead)


def _slots(cls: ast.ClassDef) -> list[str]:
    """The names a class body lists in ``__slots__``."""
    return [c.value for node in cls.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


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
        # _left is only ever assigned; _kept is read in another module.
        "c": ("class Box:\n    __slots__ = ('_kept', '_left', 'size')\n"
              "    def __init__(self):\n"
              "        self._kept = self._left = self.size = 0\n"),
        "d": "def peek(box):\n    return box._kept\n",
    }
    assert dead_private_names(sources) == ["a._dead", "c.Box._left"]
