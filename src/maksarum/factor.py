"""The triple engine: integer right triangles from divisor generators.

Sides (a, b, d) with a**2 + b**2 = d**2 are produced from a generator x
dividing b**2 via y = b**2 / x, a = (y - x) / 2, d = (y + x) / 2, where
b = M * Q for a bundling factor M (12 throughout the tablet work) and a
per-row scale generator Q.  The ratio column a**2/b**2 (or d**2/b**2) is
carried exactly as an integer coefficient times a power of 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .sexagesimal import IrregularError, regular_power

SHORT = "short"
DIAGONAL = "diagonal"


class GeneratorError(ValueError):
    """A generator x fails the preconditions for integer sides."""


class NonDivisorError(GeneratorError):
    """x does not divide (M*Q)**2."""


class ParityError(GeneratorError):
    """x and y differ in parity, so (y-x)/2 is not an integer."""


class DegenerateError(GeneratorError):
    """x >= M*Q: zero or mirrored short side."""


@dataclass(frozen=True, slots=True)
class Triple:
    """Integer right-triangle sides with a**2 + b**2 == d**2."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.d) < 1:
            raise ValueError(f"sides must be >= 1, got {self}")
        if self.a**2 + self.b**2 != self.d**2:
            raise ValueError(f"not a right triangle: {self.a}^2 + {self.b}^2 != {self.d}^2")

    def scaled(self, k: int) -> "Triple":
        return Triple(self.a * k, self.b * k, self.d * k)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.d)


@dataclass(frozen=True, slots=True)
class FourthColumn:
    """Exact ratio column value: coefficient * 60**-shift, shift minimal.

    variant "short" carries a**2/b**2, "diagonal" carries d**2/b**2; the two
    differ by exactly 1 and share the same shift.
    """

    coefficient: int
    shift: int
    variant: str = SHORT

    @property
    def value(self) -> Fraction:
        return Fraction(self.coefficient, 60**self.shift)

    def __str__(self) -> str:
        return f"{self.coefficient}S-{self.shift}"


def fourth_column(t: Triple, variant: str = SHORT) -> FourthColumn:
    """Minimal-shift exact representation of a**2/b**2 (or d**2/b**2).

    Raises IrregularError when the reduced denominator has a prime factor
    outside 2, 3, 5 (possible for irregular Q; the ratio then has no finite
    base-60 form).
    """
    if variant not in (SHORT, DIAGONAL):
        raise ValueError(f"unknown variant {variant!r}")
    num = t.a * t.a if variant == SHORT else t.d * t.d
    den = t.b * t.b
    g = gcd(num, den)
    num //= g
    den //= g
    n = regular_power(den)
    return FourthColumn(num * 60**n // den, n, variant)


@dataclass(frozen=True, slots=True)
class GeneratorSolution:
    """One integer solution: generator pair (x, y), scale Q, bundling factor M."""

    x: int
    y: int
    q: int
    m: int
    triple: Triple
    fourth: FourthColumn | None

    @property
    def b(self) -> int:
        return self.triple.b


def solve_integer(x: int, q: int, m: int = 12) -> GeneratorSolution:
    """Solve the generator x against b = m*q, checking the integer-sides rules."""
    if m < 1 or q < 1:
        raise ValueError(f"m and q must be >= 1, got m={m} q={q}")
    b = m * q
    if x < 2 or x >= b:
        raise DegenerateError(f"degenerate or mirrored: x={x} outside [2, {b - 1}]")
    bsq = b * b
    if bsq % x:
        raise NonDivisorError(f"non-divisor generator: {x} does not divide {b}^2")
    y = bsq // x
    if (y - x) % 2:
        raise ParityError(f"non-integer sides: x={x} and y={y} differ in parity")
    a = (y - x) // 2
    d = (y + x) // 2
    t = Triple(a, b, d)
    try:
        fourth = fourth_column(t)
    except IrregularError:  # irregular Q: the ratio has no finite base-60 form
        fourth = None
    return GeneratorSolution(x, y, q, m, t, fourth)


def normalized_sides(x_gen: Fraction, m: int = 12) -> tuple[Fraction, Fraction]:
    """Exact normalized sides (A, D) for generator X against the side m.

    A = (m**2/X - X)/2 and D = (m**2/X + X)/2, so A**2 + m**2 == D**2.
    """
    x_gen = Fraction(x_gen)
    if x_gen <= 0:
        raise ValueError(f"generator must be positive, got {x_gen}")
    if x_gen >= m:
        raise ValueError(f"degenerate: generator {x_gen} >= {m} gives a nonpositive short side")
    y_gen = Fraction(m * m) / x_gen
    return (y_gen - x_gen) / 2, (y_gen + x_gen) / 2


def derive_q(a_side: Fraction, d_side: Fraction, m: int = 12) -> tuple[Fraction, Triple]:
    """Recover the scale generator Q and the reduced integer triple from (A, D).

    Scales (A, m, D) by the least power of 60 making all three integral,
    divides out their gcd, and returns Q = 60**n / gcd.  Q may be a
    non-integer rational (the 3-4-5 row needs Q = 1/3 against m = 12).
    """
    a_side, d_side = Fraction(a_side), Fraction(d_side)
    if a_side <= 0:
        raise ValueError(f"short side must be positive, got {a_side}")
    if a_side * a_side + m * m != d_side * d_side:
        raise ValueError(f"contract violation: A^2 + {m}^2 != D^2 for A={a_side}, D={d_side}")
    n = max(regular_power(a_side.denominator), regular_power(d_side.denominator))
    scale = 60**n
    ai, bi, di = int(a_side * scale), m * scale, int(d_side * scale)
    g = gcd(gcd(ai, bi), di)
    return Fraction(scale, g), Triple(ai // g, bi // g, di // g)


def angle_fraction(t: Triple) -> Fraction:
    """tan(theta) = a/b as an exact sort key (descending gives tablet order)."""
    return Fraction(t.a, t.b)
