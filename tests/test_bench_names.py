"""Every function perfbench/child.py wraps by name still exists in the package.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces each
``(module, attribute)`` in ``WRAPPED`` with a timing wrapper, so a name that
a refactor deletes or moves would crash every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).parent.parent / "perfbench" / "child.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.WRAPPED
    for module_name, attr, _, _ in child.WRAPPED:
        module = importlib.import_module("maksarum." + module_name)
        assert callable(getattr(module, attr, None)), f"maksarum.{module_name}.{attr}"
