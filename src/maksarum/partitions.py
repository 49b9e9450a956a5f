"""Binary multiplicative partitions of M**2: the generator pairs X * Y = M**2.

Covers the standard reciprocal table, its rescaling into partition pairs,
the k-star rescaling and E/S neighbor stepping, and exhaustive enumeration
of all pairs representable within a fractional-digit budget.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import survey
from .factor import Triple, derive_q, normalized_sides
# not called here; kept importable because perfbench/child.py wraps them by name
from .ntheory import divisors_from_factors, factorize  # noqa: F401
from .sexagesimal import IrregularError, parse, regular_power


class ReciprocalPair(namedtuple("ReciprocalPair", "n nbar")):
    """A standard-table entry n: Sexagesimal with its reciprocal nbar: Sexagesimal."""

    __slots__ = ()


# The thirty standard pairs, column-major in the usual tabular arrangement.
# Every product is exactly one power of 60.
_STANDARD = [
    ("02", "30"), ("03", "20"), ("04", "15"), ("05", "12"), ("06", "10"),
    ("08", "07.~30"), ("09", "06.~40"), ("10", "06"), ("12", "05"), ("15", "04"),
    ("16", "03.~45"), ("18", "03.~20"), ("20", "03"), ("24", "02.~30"), ("25", "02.~24"),
    ("27", "02.~13~20"), ("30", "02"), ("32", "01.~52~30"), ("36", "01.~40"), ("40", "01.~30"),
    ("45", "01.~20"), ("48", "01.~15"), ("50", "01.~12"), ("54", "01.~06~40"),
    ("01.~00", "01~00"), ("01.~04", "56.~15"), ("01.~12", "50"), ("01.~15", "48"),
    ("01.~20", "45"), ("01.~21", "44.~26~40"),
]


def standard_table() -> list[ReciprocalPair]:
    """The thirty-pair standard reciprocal table, in table order."""
    return [ReciprocalPair(parse(n), parse(nbar)) for n, nbar in _STANDARD]


class GeneratorPair(namedtuple("GeneratorPair", "x y m")):
    """A partition X * Y = M**2 (x: Fraction, y: Fraction, m: int) with both parts finite
    base-60 fractions."""

    __slots__ = ()

    def __new__(cls, x: Fraction, y: Fraction, m: int = 12):
        if m < 1:
            raise ValueError(f"M must be >= 1, got {m}")
        if x <= 0 or y <= 0:
            raise ValueError(f"partition parts must be positive: {x}, {y}")
        if x * y != m * m:
            raise ValueError(f"contract violation: {x} * {y} != {m}**2")
        return super().__new__(cls, x, y, m)

    @classmethod
    def _make(cls, iterable):  # _replace goes through here: keep the checks
        return cls(*iterable)


def scale_to_partition(pair: ReciprocalPair, u: Fraction, v: Fraction, m: int = 12) -> GeneratorPair:
    """Rescale a reciprocal pair (n, nbar) into the partition (n*u, nbar*v).

    GeneratorPair raises ValueError unless the product is m**2.
    """
    return GeneratorPair(pair.n.value * u, pair.nbar.value * v, m)


def k_star(k: Fraction, g: GeneratorPair) -> GeneratorPair:
    """The rescaling k * (X, Y) = (k*X, Y/k); the product is conserved."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError(f"scaling constant must be positive, got {k}")
    x, y = g.x * k, g.y / k
    for part in (x, y):
        try:
            regular_power(part.denominator)
        except IrregularError:
            raise IrregularError(f"irregular scaling: {k} takes the pair outside finite base 60")
    return GeneratorPair(x, y, g.m)


def step(g: GeneratorPair, e: Fraction) -> GeneratorPair:
    """Neighbor pair (X+E, Y-S) with S = E*Y/(X+E); the product is conserved."""
    e = Fraction(e)
    j = g.x + e
    if j <= 0:
        raise ValueError(f"step would make the generator nonpositive: X={g.x}, E={e}")
    s = e * g.y / j
    return GeneratorPair(j, g.y - s, g.m)


def step_by_s(g: GeneratorPair, s: Fraction) -> GeneratorPair:
    """Inverse stepping form: for a known S, E = S*X/K with K = Y-S."""
    s = Fraction(s)
    k = g.y - s
    if k <= 0:
        raise ValueError(f"step would make the cogenerator nonpositive: Y={g.y}, S={s}")
    return step(g, s * g.x / k)


def enumerate_bounded(
    m: int,
    max_frac_digits: int,
    x_range: tuple[Fraction, Fraction] | None = None,
) -> list[GeneratorPair]:
    """All partitions X * Y = m**2 within a fractional-digit budget, ascending in X.

    A pair qualifies when X, Y and the derived table sides A = (Y-X)/2,
    D = (Y+X)/2 all fit in max_frac_digits fractional digits; equivalently
    (X*60**k, Y*60**k) is an integer solution of the survey scheme at
    Q = 60**k.  Only the a < b half (0 < theta < pi/4) is enumerated: X runs
    over (m*(sqrt(2)-1), m).  An explicit x_range narrows X further, bounds
    inclusive.  The enumeration is complete: for m = 12 at three digits it
    gives 59 pairs, of which the historical 51-row table omits eight (see
    tests/test_acceptance.py::test_c04b_bounded_table_row_count_as_stated).
    """
    sides = survey._walk(*survey._bounded_window(m, max_frac_digits, x_range))
    scale = 60**max_frac_digits
    return [GeneratorPair(Fraction(x, scale), Fraction(y, scale), m) for _, x, y, *_ in sides]


def partition_table(m: int = 12) -> list[tuple[int | None, GeneratorPair, Fraction, Fraction]]:
    """The fifteen tablet generator pairs plus the forgotten sixteenth.

    Rows are (place, pair, A, D) with place None marking the extra pair the
    tablet's selection rejects.  For a bundling factor other than 12 the
    generators scale by m/12 (the factor-3 table uses X/4, the factor-60
    table 5X), keeping X * Y = m**2.
    """
    from .tablet import corrected_table  # here, so that giza loads no tablet

    f = Fraction(m, 12)
    rows = []
    for row in corrected_table():
        t = row.triple
        pair = GeneratorPair(Fraction(t.d - t.a, row.q) * f, Fraction(t.d + t.a, row.q) * f, m)
        rows.append((row.index, pair))
    rows.append((None, GeneratorPair(Fraction(27, 4) * f, Fraction(64, 3) * f, m)))
    table = []
    for place, pair in rows:
        a_side, d_side = normalized_sides(pair.x, m)
        table.append((place, pair, a_side, d_side))
    return table


def pair_solution(pair: GeneratorPair) -> tuple[Fraction, Triple]:
    """Scale generator and reduced integer triple for a partition pair."""
    a_side, d_side = normalized_sides(pair.x, pair.m)
    return derive_q(a_side, d_side, pair.m)
