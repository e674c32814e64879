"""Source hygiene that needs no linter: no module imports a name it never
uses, the package defines no function or class that nothing uses, no
cache of the package can grow without bound, `series` imports from the
package only `algebra`, and importing the package loads no stdlib module
beyond those it names.

The checks read the syntax tree with the standard library's `ast`.  A name
counts as used when the module reads it anywhere or lists it in `__all__`,
which is how a package re-exports.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "implicitseries").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def _all_names(tree):
    """The strings a module lists in `__all__`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return out


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all_names(tree)


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


def _referenced_names(node):
    """Names a subtree reads, as bare names or as attributes."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreferenced_definitions(sources):
    """(module, name) of every top-level function and class of the modules
    {name: source} that no other top-level statement refers to and the
    package `__all__` (that of the module named `__init__`) does not list;
    a definition's references to itself do not count."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    exported = _all_names(trees["__init__"]) if "__init__" in trees else set()
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    refs = {id(stmt): _referenced_names(stmt) for stmt in statements}
    out = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if stmt.name in exported:
                continue
            if not any(stmt.name in refs[id(other)] for other in statements if other is not stmt):
                out.append((name, stmt.name))
    return out


def test_the_scan_sees_unreferenced_definitions():
    sources = {
        "__init__": "from .a import public\n__all__ = ['public']\n",
        "a": "def public(): return helper()\n"
             "def helper(): return 1\ndef dead(): return dead()\n"
             "class Unused: pass\n",
        "b": "from .a import dead\nclass Used: pass\nx = Used.attr\n"
             "def via_attr(): pass\ny = obj.via_attr\n",
    }
    assert unreferenced_definitions(sources) == [("a", "dead"), ("a", "Unused")]


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(sources) == []


def test_no_cache_grows_with_every_distinct_input():
    # a long-lived process sees unboundedly many distinct arguments
    modules = [importlib.import_module("implicitseries" if p.stem == "__init__"
                                       else f"implicitseries.{p.stem}") for p in PACKAGE]
    unbounded = [(module.__name__, name) for module in modules
                 for name, obj in vars(module).items()
                 if callable(getattr(obj, "cache_info", None)) and obj.cache_info().maxsize is None]
    assert unbounded == []


def package_imports(source):
    """The package modules a source imports by relative imports."""
    return sorted({node.module or alias.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names})


def test_series_imports_from_the_package_only_algebra():
    # one home per one-variable series operation: series builds reciprocals,
    # composition and reversion on its own kernels, not on combinatorics
    assert package_imports((ROOT / "src" / "implicitseries" / "series.py").read_text()) \
        == ["algebra"]


# every stdlib module the package imports by name; what these load in turn
# differs between Python versions, so the test compares against them
STDLIB_NAMED = ("collections", "contextlib", "fractions", "functools", "getopt",
                "itertools", "json", "math", "operator", "re", "sys", "time")


def _modules_loaded_by(statement):
    """sys.modules after the statement, in a fresh interpreter without site."""
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(proc.stdout.split())


def test_the_package_loads_no_stdlib_module_beyond_those_it_names():
    baseline = _modules_loaded_by("import " + ", ".join(STDLIB_NAMED))
    added = _modules_loaded_by("import implicitseries.cli") - baseline
    assert "implicitseries.cli" in added
    assert sorted(m for m in added if m.partition(".")[0] != "implicitseries") == []
