"""What a fresh ``import maksarum.cli`` loads: every traced name, and no more.

A traced benchmark run (``perfbench/run.py --trace 1``) imports
``maksarum.cli`` and then replaces each ``(module, attribute)`` in
perfbench/child.py's ``WRAPPED`` with a timing wrapper, looking the module up
in ``sys.modules``.  So each such module must be in ``sys.modules`` after that
one import, possibly not yet loaded, and each name must resolve through
``getattr``: a name that a refactor deletes or moves, or a module that the CLI
stops importing at start-up, would crash every traced run.  The same import
must stay lean, since every CLI start pays it: it loads no dataclasses, builds
no typing.ForwardRef and compiles no regex.  It also freezes the objects it
made, so that no collection walks them again, the ones at exit included.  A
plain ``import maksarum`` freezes nothing.  ``tablet``, ``partitions`` and
``circle`` load on first use, so a command loads only the ones it runs, and
``fractions`` is imported only where a Fraction is built: ``survey`` and
``generate`` load neither it nor ``typing``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CHILD = ROOT / "perfbench" / "child.py"

# Counts the work that the package's own modules do at import: the standard modules that the
# CLI needs anyway, and typing to count its ForwardRefs, are loaded first, so only the
# package's own calls are counted.
PROBE = """
import argparse, contextlib, gettext, re, typing
import gc, json, sys
calls = {"forward_refs": 0, "regex_compiles": 0}

def counting(name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return wrapper

typing.ForwardRef.__init__ = counting("forward_refs", typing.ForwardRef.__init__)
re._compile = counting("regex_compiles", re._compile)
import maksarum.cli
print(json.dumps({
    **calls,
    "frozen": gc.get_freeze_count(),
    "modules": sorted(sys.modules),
    "unresolved": [
        f"maksarum.{module}.{attr}" for module, attr in json.loads(sys.argv[1])
        if not callable(getattr(sys.modules.get("maksarum." + module), attr, None))
    ],
}))
"""


@pytest.fixture(scope="module")
def cli_import():
    """sys.modules and the unresolved WRAPPED names after importing maksarum.cli in a fresh process."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.WRAPPED
    wrapped = [(module, attr) for module, attr, _, _ in child.WRAPPED]
    return json.loads(_fresh(PROBE, json.dumps(wrapped)))


def _fresh(code, *args):
    """The stdout of code run by a fresh interpreter that imports the package from src.  It
    runs with -S: a site-packages .pth file may import any module at start-up, typing
    among them, and would hide that the package imports it too."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.stdout


def test_traced_names_resolve(cli_import):
    assert cli_import["unresolved"] == []


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_import_leaves_out(cli_import, module):
    assert module not in cli_import["modules"]


@pytest.mark.parametrize("work", ["forward_refs", "regex_compiles"])
def test_cli_import_compiles_nothing(cli_import, work):
    # a typing.NamedTuple class turns each string annotation into a ForwardRef, and a
    # module-level re.compile builds a pattern that most commands never use
    assert cli_import[work] == 0


def test_cli_import_freezes_its_heap(cli_import):
    # gc.freeze() in cli: no collection, the ones at exit included, walks the import's objects
    assert cli_import["frozen"] > 0


def test_library_import_keeps_its_gc():
    assert _fresh("import gc, maksarum; print(gc.get_freeze_count())") == "0\n"


# A lazily loaded module is a types.ModuleType subclass until its first attribute read.  The
# exact-value modules are counted beyond what the CLI's argparse, contextlib and gettext load,
# which differs between Python versions.
LOADED = """
import sys
import argparse, contextlib, gettext
before = set(sys.modules)
import io, types
import maksarum.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = maksarum.cli.main(sys.argv[1:])
lazy = [name for name in ("tablet", "partitions", "circle")
        if type(sys.modules["maksarum." + name]) is types.ModuleType]
exact = sorted({"fractions", "decimal", "numbers", "typing"} & (set(sys.modules) - before))
import json
print(json.dumps([code, lazy, exact]))
"""


@pytest.mark.parametrize("argv, loaded, fractions", [
    (["survey", "--Q-range", "1:50", "--report"], [], False),
    (["survey", "--Q-range", "1:50", "--out", "F", "--histogram-out", "H"], [], False),
    (["generate", "--Q", "10"], [], False),
    (["generate", "--Q", "10", "--decimal"], [], False),
    (["generate", "--bounded", "3"], [], False),
    (["generate", "--bounded", "3", "--decimal"], [], False),
    (["generate", "--bounded", "3", "--Xmin", "05", "--Xmax", "06.~30"], [], True),
    (["reconstruct"], ["tablet"], True),
    (["pi"], ["circle"], True),
    (["giza"], ["partitions"], True),
    (["survey", "--Q-set", "p322", "--report"], ["tablet"], False),
    (["partitions", "--standard"], ["partitions"], True),
    (["partitions", "--scaled"], ["partitions"], True),
    (["partitions"], ["tablet", "partitions"], True),
], ids=["survey_report", "survey_export", "generate_q", "generate_q_decimal", "generate_bounded",
        "generate_bounded_decimal", "generate_x_range", "reconstruct", "pi", "giza", "survey_p322",
        "partitions_standard", "partitions_scaled", "partitions"])
def test_commands_load_only_what_they_run(tmp_path, monkeypatch, argv, loaded, fractions):
    # survey and generate build no Fraction, so they import neither fractions, with its
    # decimal and numbers, nor typing; the X range and the exact-value commands need fractions
    monkeypatch.chdir(tmp_path)
    code, lazy, exact = json.loads(_fresh(LOADED, *argv))
    assert (code, lazy) == (0, loaded)
    if fractions:
        assert "fractions" in exact
    else:
        assert exact == []


LIBRARY = """
import json, sys, types
import maksarum
unloaded = [name for name in ("tablet", "partitions", "circle")
            if type(sys.modules["maksarum." + name]) is not types.ModuleType]
from maksarum import corrected_table
try:
    maksarum.no_such_name
except AttributeError as e:
    missing = str(e)
print(json.dumps({
    "unloaded": unloaded,
    "resolved": [callable(getattr(maksarum, name))
                 for name in ("enumerate_bounded", "corrected_table", "p322_q_set", "reconstruct_all")],
    "same": [maksarum.enumerate_bounded is maksarum.partitions.enumerate_bounded,
             corrected_table is maksarum.tablet.corrected_table],
    "missing": missing,
}))
"""


def test_library_names_resolve_on_first_use():
    assert json.loads(_fresh(LIBRARY)) == {
        "unloaded": ["tablet", "partitions", "circle"],
        "resolved": [True] * 4,
        "same": [True, True],
        "missing": "module 'maksarum' has no attribute 'no_such_name'",
    }
