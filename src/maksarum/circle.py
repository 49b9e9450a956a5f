"""Base-60 truncations of pi, circle-area rules, and the two-circle ratio.

pi comes from a built-in 50-digit decimal constant; the content here is the
exact base-60 truncation arithmetic, the from-above area rule B = c**2/12,
its exact correction factor 3/pi, and the concentric-circle diameter ratio
sqrt(pi/3).  Decimal results carry 30 significant digits, each computed in a copy
of one fixed context, so the caller's decimal context never changes them.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext
from fractions import Fraction

from .sexagesimal import Sexagesimal

_PI_50 = "3.1415926535897932384626433832795028841971693993751"
PI_FRACTION = Fraction(Decimal(_PI_50))

PRECISION = 30  # significant decimal digits, well inside the 50-digit literal
# rounding and traps named too: a field left out is copied from decimal.DefaultContext
_CONTEXT = Context(prec=PRECISION, rounding=ROUND_HALF_EVEN, traps=[DivisionByZero, InvalidOperation, Overflow])


def pi_decimal() -> Decimal:
    with localcontext(_CONTEXT):
        return +Decimal(_PI_50)


class PiApproximation(namedtuple("PiApproximation", "digits k error")):
    """pi truncated to k: int fractional sexagesits.

    digits: Sexagesimal is 3 followed by those k sexagesits; error: Decimal is
    pi minus the truncation, always in [0, 60**-k).
    """

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return self.digits.value

    @property
    def fractional_part(self) -> Fraction:
        return self.value - 3


def pi_digits(k: int) -> PiApproximation:
    """Truncation of pi to k fractional sexagesits, 1 <= k <= 8."""
    if not 1 <= k <= 8:
        raise ValueError(f"k must be in 1..8, got {k}")
    digits = Sexagesimal.truncate(PI_FRACTION, k)
    value = digits.value
    with localcontext(_CONTEXT):
        err = Decimal(_PI_50) - Decimal(value.numerator) / Decimal(value.denominator)
    return PiApproximation(digits, k, err)


def area_upper(c: Fraction) -> Fraction:
    """The from-above area rule B = c**2 / 12 for circumference c; exact."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"circumference must be positive, got {c}")
    return c * c / 12


def true_area(c: Fraction) -> Decimal:
    """True disc area c**2 / (4*pi) to 30 significant digits."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"circumference must be positive, got {c}")
    with localcontext(_CONTEXT):
        return Decimal(c.numerator) ** 2 / (Decimal(c.denominator) ** 2 * 4 * pi_decimal())


def area_correction_factor() -> Decimal:
    """3/pi: multiplying B by it recovers the true area exactly."""
    with localcontext(_CONTEXT):
        return 3 / pi_decimal()


def area_correction_sexagesimal(k: int = 5) -> Sexagesimal:
    """Base-60 truncation of 3/pi (five digits give 00.~57~17~44~48~22)."""
    return Sexagesimal.truncate(Fraction(3) / PI_FRACTION, k)


def outer_ring_ratio() -> tuple[Decimal, Sexagesimal]:
    """Diameter ratio sqrt(pi/3) of the from-above circle to the true circle.

    Returns the decimal value to 30 significant digits and its five-sexagesit
    truncation 01.~01~23~58~34~08.
    """
    with localcontext(_CONTEXT):
        ratio = (Decimal(_PI_50) / 3).sqrt()
    return ratio, Sexagesimal.truncate(Fraction(ratio), 5)
