"""Exact base-60 arithmetic and bundling-factor Pythagorean-triple generation.

The package reconstructs the Plimpton 322 tablet from divisor generators,
enumerates integer solutions over scale-generator ranges, and reproduces
the associated sexagesimal constants, all in exact arithmetic.  The names
below are the documented library API; everything else lives in the
submodules.

tablet, partitions and circle are loaded on first use: each is in
sys.modules from the start, and is compiled and run when one of its
attributes is first read, so that survey and generate never pay for them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .factor import GeneratorError, Triple, derive_q, solve_integer
from .sexagesimal import PlaceValue, Sexagesimal, SexagesimalError, parse, reciprocal, to_string
from .survey import count_stats, enumerate_solutions, p322_selection, stats

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules and loaded when an attribute is first read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound as an import binds a submodule, so `from . import tablet` reads none of its attributes
circle, partitions, tablet = _lazy("circle"), _lazy("partitions"), _lazy("tablet")

_LAZY_NAMES = {
    "enumerate_bounded": partitions,
    "corrected_table": tablet,
    "p322_q_set": tablet,
    "reconstruct_all": tablet,
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
