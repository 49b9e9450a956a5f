"""Independent oracles for the benchmark's outputs.

Nothing here imports maksarum: every expected value is derived from sympy,
the standard library and the closed forms below, so a bug shared by the
package and its own tests cannot also hide in the benchmark's checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import sympy

# Angle bands, as exact integer tests on the short side a against b.
# (pi/6, pi/4) is open; the tablet band arctan(28/45)..arctan(119/120) is closed.


def in_pi6_pi4(a: int, b: int) -> bool:
    return 3 * a * a > b * b and a < b


def in_p322(a: int, b: int) -> bool:
    return 45 * a >= 28 * b and 120 * a <= 119 * b


@dataclass(frozen=True)
class Survey:
    """Every solution of a Q window, in (Q, x) order, and its report counts."""

    rows: tuple[tuple[int, int, int, int, int, int], ...]  # (Q, x, y, a, b, d)
    counts: tuple[int, int, int, int, int, int]  # total pi6 p322 / distinct ...

    def report_lines(self) -> list[str]:
        t, p, c, dt, dp, dc = self.counts
        return [
            f"{t} {p} {c} / {dt} {dp} {dc}",
            f"ratio pi6_pi4: {p}/{t} = {p / t:.7f}",
            f"ratio p322:    {c}/{t} = {c / t:.7f}",
            f"distinct pi6_pi4: {dp}/{dt} = {dp / dt:.5f}",
            f"distinct p322:    {dc}/{dt} = {dc / dt:.5f}",
        ]


def survey(lo: int, hi: int, m: int = 12) -> Survey:
    """Solutions for lo <= Q <= hi with bundling factor m (m even).

    With b = mQ, both generators x and y = b**2/x must be even, so
    x = 2x', y = 2y' with x' * y' = (mQ/2)**2 and 1 <= x' < mQ/2;
    then a = y' - x' and d = y' + x'.
    """
    if m % 2:
        raise ValueError("the halved-generator form needs an even m")
    rows = []
    angles: list[set] = [set(), set(), set()]
    band = p322 = 0
    for q in range(lo, hi + 1):
        h = m * q // 2
        b = m * q
        for xp in sympy.divisors(h * h):
            if xp >= h:
                break
            yp = h * h // xp
            a, d = yp - xp, yp + xp
            rows.append((q, 2 * xp, 2 * yp, a, b, d))
            g = math.gcd(a, b)
            key = (a // g, b // g)
            angles[0].add(key)
            if in_pi6_pi4(a, b):
                band += 1
                angles[1].add(key)
            if in_p322(a, b):
                p322 += 1
                angles[2].add(key)
    counts = (len(rows), band, p322, len(angles[0]), len(angles[1]), len(angles[2]))
    return Survey(tuple(rows), counts)


@dataclass(frozen=True)
class BoundedPair:
    x: Fraction
    y: Fraction

    @property
    def a_side(self) -> Fraction:
        return (self.y - self.x) / 2

    @property
    def d_side(self) -> Fraction:
        return (self.y + self.x) / 2


def bounded_pairs(k: int, m: int = 12) -> list[BoundedPair]:
    """All X * Y = m**2 with X, Y, A, D within k fractional sexagesits and A < m.

    Scaled by 60**k, X and Y are complementary divisors of m**2 * 60**(2k);
    A and D stay within k digits exactly when the two share parity.
    """
    scale = 60**k
    total = m * m * scale * scale
    out = []
    for xi in sympy.divisors(total):
        yi = total // xi
        if xi >= yi:
            break
        if (yi - xi) % 2 or yi - xi >= 2 * m * scale:
            continue
        out.append(BoundedPair(Fraction(xi, scale), Fraction(yi, scale)))
    return out


def primitive_triple(a_side: Fraction, m: int) -> tuple[int, int, int]:
    """The primitive (a, b, d) with a/b == a_side/m.

    A primitive triple has coprime legs, so its legs are the reduced ratio.
    """
    r = Fraction(a_side) / m
    a, b = r.numerator, r.denominator
    d = math.isqrt(a * a + b * b)
    if d * d != a * a + b * b:
        raise ValueError(f"{a}/{b} is not the leg ratio of a right triangle")
    return a, b, d


_GROUPS = re.compile(r"^\d{1,2}(~\d{1,2})*$")


def parse_paper(text: str) -> Fraction:
    """Parse paper-style sexagesimal: '02~49' is 169, '01.~12' is 6/5."""
    whole, _, frac = text.partition(".~")
    if not _GROUPS.match(whole) or (frac and not _GROUPS.match(frac)):
        raise ValueError(f"not a paper-style numeral: {text!r}")
    value = Fraction(0)
    for digit in whole.split("~"):
        value = value * 60 + _digit(digit, text)
    if frac:
        for i, digit in enumerate(frac.split("~"), 1):
            value += Fraction(_digit(digit, text), 60**i)
    return value


def _digit(s: str, text: str) -> int:
    d = int(s)
    if d >= 60:
        raise ValueError(f"digit {d} >= 60 in {text!r}")
    return d


def pi_truncation(k: int) -> Fraction:
    """pi cut to k fractional sexagesits."""
    scale = 60**k
    return Fraction(int(sympy.floor(sympy.pi * scale)), scale)


def pi_error(k: int) -> float:
    """pi minus its k-digit truncation."""
    t = pi_truncation(k)
    return float((sympy.pi - sympy.Rational(t.numerator, t.denominator)).evalf(40))


def decimal_close(text: str, expr: sympy.Expr, digits: int) -> bool:
    """True when the decimal string agrees with expr to within 10**-digits."""
    got = sympy.Rational(text)
    return abs((got - expr).evalf(digits + 10)) < sympy.Rational(1, 10**digits)
