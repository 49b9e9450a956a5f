"""Every name a package module imports is used in that module.

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


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module, wrapped):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    unused = {name: line for name, line in _unused_imports(tree).items()
              if (module, name) not in wrapped}
    assert unused == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, re\nfrom math import gcd, isqrt\nre.compile(gcd)\n")
    assert _unused_imports(tree) == {"os": 1, "isqrt": 2}
