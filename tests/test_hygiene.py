"""Source hygiene that needs no linter: no module imports a name it never
uses.

The check reads the syntax tree with the standard library's `ast`.  A name
counts as used when the module reads it anywhere or lists it in `__all__`,
which is how a package re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "implicitseries").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node.lineno))
    return out


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_the_scan_sees_unused_and_used_imports():
    src = (
        "import os\nimport os.path\nfrom math import comb, factorial as fact\n"
        "from __future__ import annotations\n"
        "from fractions import Fraction\nfrom .x import Y\n"
        "__all__ = ['Y']\n"
        "def f(a: Fraction) -> int:\n    return fact(a)\n"
    )
    assert unused_imports(src) == [("os", 1), ("os", 2), ("comb", 3)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
