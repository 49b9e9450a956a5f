"""The triple engine: integer right triangles from divisor generators.

Sides (a, b, d) with a**2 + b**2 = d**2 are produced from a generator x
dividing b**2 via y = b**2 / x, a = (y - x) / 2, d = (y + x) / 2, where
b = M * Q for a bundling factor M (12 throughout the tablet work) and a
per-row scale generator Q.  The ratio column a**2/b**2 is carried exactly
as an integer coefficient times a power of 60.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .sexagesimal import BASE, regular_power


class GeneratorError(ValueError):
    """A generator x fails the preconditions for integer sides."""


class NonDivisorError(GeneratorError):
    """x does not divide (M*Q)**2."""


class ParityError(GeneratorError):
    """x and y differ in parity, so (y-x)/2 is not an integer."""


class DegenerateError(GeneratorError):
    """x >= M*Q: zero or mirrored short side."""


class Triple(namedtuple("Triple", "a b d")):
    """Integer right-triangle sides (a: int, b: int, d: int) with a**2 + b**2 == d**2."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, d: int):
        self = super().__new__(cls, a, b, d)
        if min(a, b, d) < 1:
            raise ValueError(f"sides must be >= 1, got {self}")
        if a**2 + b**2 != d**2:
            raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace goes through here: keep the checks
        return cls(*iterable)

    def scaled(self, k: int) -> "Triple":
        return Triple(self.a * k, self.b * k, self.d * k)


class FourthColumn(namedtuple("FourthColumn", "coefficient shift")):
    """Exact ratio column value a**2/b**2 = coefficient * 60**-shift, shift minimal.

    Fields coefficient: int, shift: int.  The diagonal reading d**2/b**2 is
    this plus 1, at the same shift.
    """

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return Fraction(self.coefficient, 60**self.shift)

    def __str__(self) -> str:
        return f"{self.coefficient}S-{self.shift}"


@lru_cache(maxsize=4096)  # regular legs are 5-smooth: at most 462 for M = 12 and Q up to 10**5
def reciprocal_square(pb: int) -> tuple[int, int]:
    """(shift, 60**shift // pb**2) for the least shift with pb**2 | 60**shift: the fourth
    column of primitive legs (pa, pb) is pa**2 times that at that shift, which is minimal
    since (pa/pb)**2 is in lowest terms.  IrregularError when pb has a prime above 5."""
    shift = regular_power(pb * pb)
    return shift, BASE**shift // (pb * pb)


def fourth_column(t: Triple) -> FourthColumn:
    """Minimal-shift exact representation of a**2/b**2.

    Raises IrregularError when the reduced denominator has a prime factor
    outside 2, 3, 5 (possible for irregular Q; the ratio then has no finite
    base-60 form).
    """
    g = gcd(t.a, t.b)
    shift, mult = reciprocal_square(t.b // g)
    return FourthColumn((t.a // g) ** 2 * mult, shift)


def prime_to_60(b: int) -> int:
    """The part r of b prime to 60: for g dividing b, b/g is regular iff r divides g."""
    while (g := gcd(b, BASE)) > 1:
        b //= g
    return b


class GeneratorSolution(namedtuple("GeneratorSolution", "x y q m triple fourth")):
    """One integer solution: generator pair (x: int, y: int), scale q: int, bundling factor
    m: int, its triple: Triple and its fourth: FourthColumn | None (blank for irregular legs)."""

    __slots__ = ()


def solution(q: int, x: int, y: int, a: int, b: int, d: int, m: int, r: int) -> GeneratorSolution:
    """The solution of sides (a, b, d) checked by the caller, from x*y = b**2; r = prime_to_60(b),
    so the fourth column is blank, at the cost of one modulo, unless r divides a."""
    t = tuple.__new__(Triple, (a, b, d))  # Triple(a, b, d) would test the right angle again
    return GeneratorSolution(x, y, q, m, t, None if a % r else fourth_column(t))


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
    return solution(q, x, y, (y - x) // 2, b, (y + x) // 2, m, prime_to_60(b))


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
