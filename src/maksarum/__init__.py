"""Exact base-60 arithmetic and bundling-factor Pythagorean-triple generation.

The package reconstructs the Plimpton 322 tablet from divisor generators,
enumerates integer solutions over scale-generator ranges, and reproduces
the associated sexagesimal constants, all in exact arithmetic.  The names
below are the documented library API; everything else lives in the
submodules.
"""

from .factor import GeneratorError, Triple, derive_q, solve_integer
from .partitions import enumerate_bounded
from .sexagesimal import PlaceValue, Sexagesimal, SexagesimalError, parse, reciprocal, to_string
from .survey import count_stats, enumerate_solutions, p322_selection, stats
from .tablet import corrected_table, p322_q_set, reconstruct_all

__version__ = "0.1.0"
