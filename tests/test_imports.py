"""Every name a package module imports is used where the import binds it.

A module-level import must be read in the module, outside any function that
imports the same name itself; an import inside a function must be read in that
function's own body, so one left in the wrong function fails.

Two kinds of import are exempt: ``__init__``'s re-exports, which are the
library API, and the ``(module, attribute)`` pairs in perfbench/child.py's
``WRAPPED``, which a traced benchmark run looks up by name in that module.
``from __future__`` imports bind no name the code reads.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "maksarum"
CHILD = ROOT / "perfbench" / "child.py"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.fixture(scope="module")
def wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return {(module, attr) for module, attr, _, _ in child.WRAPPED}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """{name: line} of the imports that bind a name in scope, not in a function nested in it."""
    imported = {}
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, FUNCTIONS):
            imported.update(_own_imports(node))
    return imported


def _reads(scope, name):
    """Whether scope reads name outside the nested functions that import it themselves."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if not (isinstance(node, FUNCTIONS) and name in _own_imports(node)) and _reads(node, name):
            return True
    return False


def _unused_imports(tree):
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    return {name: line for scope in scopes for name, line in _own_imports(scope).items()
            if not _reads(scope, name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module, wrapped):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    unused = {name: line for name, line in _unused_imports(tree).items()
              if (module, name) not in wrapped}
    assert unused == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, re\nfrom math import gcd, isqrt\nre.compile(gcd)\n")
    assert _unused_imports(tree) == {"os": 1, "isqrt": 2}
    # f's Fraction is read only in g, and the module's sys only in h, which imports its own;
    # h reads gcd from the branch that imports it, through a lambda
    tree = ast.parse(
        "import sys\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return 1\n"
        "def g():\n"
        "    return Fraction(1)\n"
        "def h(x):\n"
        "    import sys\n"
        "    if x:\n"
        "        from math import gcd\n"
        "        return lambda: gcd(x, sys.maxsize)\n"
    )
    assert _unused_imports(tree) == {"sys": 1, "Fraction": 3}
