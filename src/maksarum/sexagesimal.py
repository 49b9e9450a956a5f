"""Exact finite base-60 numbers.

A ``Sexagesimal`` is a nonnegative rational whose denominator is a power of
60, stored as ``scaled / 60**frac_len`` with ``scaled`` a plain Python int.
A ``PlaceValue`` is a normalized mantissa together with a signed power-of-60
shift, mirroring the floating (relative) notation in which a numeral's scale
is a display choice.  All arithmetic is exact; :class:`fractions.Fraction`
serves as the reference rational type.

Text forms accepted and emitted:

* paper style   ``02~49``, ``01.~12``, ``00.~57~17~44`` (radix ``.~``,
  groups joined by ``~`` or a single space),
* colon style   ``02:49``, ``01;12`` (radix ``;``, separator ``:``),
* a bare run of three or more decimal digits is a decimal integer,
* an ``S-n`` suffix multiplies by ``60**-n`` and yields a ``PlaceValue``,
  e.g. ``212415 S-3`` or ``59~00~15 S-3``.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Union

BASE = 60


class SexagesimalError(ValueError):
    """Base error for the base-60 kernel."""


class ParseError(SexagesimalError):
    """Malformed numeral text."""


class IrregularError(SexagesimalError):
    """A value has no finite base-60 representation (prime factor not in 2,3,5)."""


def is_regular(n: int) -> bool:
    """True iff n >= 1 factors entirely into 2, 3 and 5.

    Exactly the integers with terminating base-60 reciprocals; irregular
    numbers (7, 11, ...) are the ones ancient reciprocal tables avoid.
    """
    if n < 1:
        raise ValueError(f"is_regular expects n >= 1, got {n}")
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def regular_power(den: int) -> int:
    """Least k with den | 60**k, or IrregularError if no such k exists."""
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    k = 0
    while den != 1:
        g = math.gcd(den, BASE)
        if g == 1:
            raise IrregularError(f"irregular number: {den} has a prime factor outside 2, 3, 5")
        den //= g
        k += 1
    return k


class _Exact:
    """Equality, ordering and hashing on the exact rational ``value``.

    Operands may be Sexagesimal, PlaceValue, int or Fraction; any other type
    gives NotImplemented, so ``==`` is False and ordering raises TypeError.
    """

    __slots__ = ()

    value: Fraction

    def _compare(self, other: object, op) -> bool:
        v = _value_of(other)
        return NotImplemented if v is None else op(self.value, v)

    def __eq__(self, other: object) -> bool:
        return self._compare(other, operator.eq)

    def __lt__(self, other: object) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other: object) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other: object) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other: object) -> bool:
        return self._compare(other, operator.ge)

    def __hash__(self) -> int:
        return hash(self.value)


def _value_of(x: object) -> Fraction | None:
    """Exact value of a numeral, int or Fraction; None for any other type."""
    if isinstance(x, _Exact):
        return x.value
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


class Sexagesimal(_Exact):
    """Normalized nonnegative finite base-60 number.

    Invariants: every digit lies in [0, 59]; no trailing zero fractional
    digit (frac_len is minimal); canonical zero is the single digit 0 with
    frac_len 0.  Instances are immutable and hashable.
    """

    __slots__ = ("_scaled", "_frac_len")

    def __init__(self, scaled: int, frac_len: int = 0):
        if scaled < 0:
            raise ValueError(f"sexagesimal values are nonnegative, got {scaled}/60**{frac_len}")
        if frac_len < 0:
            raise ValueError(f"frac_len must be >= 0, got {frac_len}")
        while frac_len > 0 and scaled % BASE == 0:
            scaled //= BASE
            frac_len -= 1
        if scaled == 0:
            frac_len = 0
        self._scaled = scaled
        self._frac_len = frac_len

    @classmethod
    def from_int(cls, n: int) -> "Sexagesimal":
        return cls(n, 0)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Sexagesimal":
        """Exact conversion; IrregularError if the reduced denominator is not 60-smooth."""
        if value < 0:
            raise ValueError(f"sexagesimal values are nonnegative, got {value}")
        k = regular_power(value.denominator)
        return cls(int(value * BASE**k), k)

    @classmethod
    def from_digits(cls, int_digits: list[int], frac_digits: list[int] = ()) -> "Sexagesimal":
        scaled = 0
        for d in list(int_digits) + list(frac_digits):
            if not 0 <= d < BASE:
                raise ValueError(f"digit {d} out of range [0, 59]")
            scaled = scaled * BASE + d
        return cls(scaled, len(frac_digits))

    @classmethod
    def truncate(cls, value: Union[Fraction, "Sexagesimal"], frac_len: int) -> "Sexagesimal":
        """Truncate (never round up) to at most frac_len fractional digits."""
        fr = value.value if isinstance(value, Sexagesimal) else value
        if fr < 0:
            raise ValueError("cannot truncate a negative value")
        return cls(int(fr * BASE**frac_len), frac_len)

    @property
    def scaled(self) -> int:
        return self._scaled

    @property
    def frac_len(self) -> int:
        return self._frac_len

    @property
    def value(self) -> Fraction:
        return Fraction(self._scaled, BASE**self._frac_len)

    @property
    def is_zero(self) -> bool:
        return self._scaled == 0

    @property
    def int_digits(self) -> list[int]:
        n = self._scaled // BASE**self._frac_len
        if n == 0:
            return [0]
        out = []
        while n:
            out.append(n % BASE)
            n //= BASE
        return out[::-1]

    @property
    def frac_digits(self) -> list[int]:
        n = self._scaled % BASE**self._frac_len
        out = []
        for _ in range(self._frac_len):
            out.append(n % BASE)
            n //= BASE
        return out[::-1]

    @property
    def digits(self) -> list[int]:
        return self.int_digits + self.frac_digits

    def __add__(self, other: "Numeral | int | Fraction") -> "Sexagesimal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        f = max(self._frac_len, other._frac_len)
        a = self._scaled * BASE ** (f - self._frac_len)
        b = other._scaled * BASE ** (f - other._frac_len)
        return Sexagesimal(a + b, f)

    __radd__ = __add__

    def __mul__(self, other: "Numeral | int | Fraction") -> "Sexagesimal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Sexagesimal(self._scaled * other._scaled, self._frac_len + other._frac_len)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Sexagesimal({self._scaled}, {self._frac_len})"


def _coerce(v: object) -> Sexagesimal | None:
    """v as a Sexagesimal; None for any type the comparisons also reject.

    A Fraction with no finite base-60 form (1/7) raises IrregularError.
    """
    if isinstance(v, Sexagesimal):
        return v
    value = _value_of(v)
    return None if value is None else Sexagesimal.from_fraction(value)


class PlaceValue(_Exact):
    """A value in floating notation: normalized integer mantissa times 60**shift.

    The mantissa carries no trailing zero digit (it is not divisible by 60)
    so two PlaceValues are equal exactly when their rational values are.
    Mantissa-only comparison -- equality up to a power of 60, the tablet
    scribes' working notion -- is ``place_value_equal``.
    """

    __slots__ = ("_mantissa", "_shift")

    def __init__(self, mantissa: "Numeral | int | Fraction", shift: int = 0):
        m = _coerce(mantissa)
        if m is None:
            raise TypeError(f"cannot coerce {type(mantissa).__name__} to Sexagesimal")
        if m.frac_len != 0:
            shift -= m.frac_len
            m = Sexagesimal(m.scaled, 0)
        while not m.is_zero and m.scaled % BASE == 0:
            m = Sexagesimal(m.scaled // BASE, 0)
            shift += 1
        if m.is_zero:
            shift = 0
        self._mantissa = m
        self._shift = shift

    @classmethod
    def from_fraction(cls, value: Fraction) -> "PlaceValue":
        if value < 0:
            raise ValueError(f"place values are nonnegative, got {value}")
        if value == 0:
            return cls(0, 0)
        k = regular_power(value.denominator)
        return cls(Sexagesimal(int(value * BASE**k), 0), -k)

    @property
    def mantissa(self) -> Sexagesimal:
        return self._mantissa

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def value(self) -> Fraction:
        return self._mantissa.value * Fraction(BASE) ** self._shift

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"PlaceValue({self._mantissa.scaled}, {self._shift})"


Numeral = Union[Sexagesimal, PlaceValue]


def place_value_equal(a: "Numeral | int | Fraction", b: "Numeral | int | Fraction") -> bool:
    """True iff a and b agree up to a factor 60**k (identical normalized mantissas)."""
    va, vb = _value_of(a), _value_of(b)
    if va is None or vb is None:
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if va == 0 or vb == 0:
        return va == vb
    r = va / vb
    num, den = r.numerator, r.denominator
    big, small = max(num, den), min(num, den)
    if small != 1:
        return False
    while big % BASE == 0:
        big //= BASE
    return big == 1


# --- parsing ----------------------------------------------------------------

_SUFFIX_RE = re.compile(r"^(?P<body>.*\S)\s+S-(?P<shift>\d+)$")
_DECIMAL_RE = re.compile(r"^\d{3,}$")


def parse(text: str) -> Numeral:
    """Parse a numeral in paper or colon style; an S-n suffix yields a PlaceValue."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    m = _SUFFIX_RE.match(s)
    if m:
        body, down = m.group("body"), int(m.group("shift"))
        return PlaceValue.from_fraction(_parse_body(body).value * Fraction(1, BASE**down))
    return _parse_body(s)


def _parse_body(body: str) -> Sexagesimal:
    if _DECIMAL_RE.match(body):
        return Sexagesimal.from_int(int(body))
    if ";" in body or ":" in body:
        return _parse_groups(body, radix=";", sep=":")
    # the paper-style radix is ".~" but a dot-space spelling also occurs
    normalized = body.replace(". ", ".~", 1) if ".~" not in body else body
    return _parse_groups(normalized, radix=".~", sep="~ ")


def _parse_groups(body: str, radix: str, sep: str) -> Sexagesimal:
    if body.count(radix) > 1:
        raise ParseError(f"two radix markers in {body!r}")
    int_part, found, frac_part = body.partition(radix)
    int_digits = _split_groups(int_part, sep, body)
    frac_digits = _split_groups(frac_part, sep, body) if found else []
    if not int_digits and not frac_digits:
        raise ParseError(f"no digits in {body!r}")
    return Sexagesimal.from_digits(int_digits, frac_digits)


def _split_groups(part: str, sep: str, whole: str) -> list[int]:
    if not part:
        return []
    out = []
    pos = 0
    for group in re.split(f"[{re.escape(sep)}]", part):
        pos = whole.find(group, pos)
        if not group or not group.isdigit() or len(group) > 2:
            raise ParseError(f"bad digit group {group!r} at position {pos} in {whole!r}")
        val = int(group)
        if val >= BASE:
            raise ParseError(f"digit group {group!r} >= 60 at position {pos} in {whole!r}")
        out.append(val)
        pos += len(group)
    return out


# --- formatting -------------------------------------------------------------

def to_string(value: "Numeral | int | Fraction", style: str = "paper") -> str:
    """Render a numeral; styles are "paper" (02~49, 01.~12) and "colon" (02:49, 01;12)."""
    if style not in ("paper", "colon"):
        raise ValueError(f"unknown style {style!r}")
    if isinstance(value, int):
        value = Sexagesimal.from_int(value)
    elif isinstance(value, Fraction):
        value = Sexagesimal.from_fraction(value)
    if isinstance(value, PlaceValue):
        if value.shift >= 0:
            return to_string(Sexagesimal(value.mantissa.scaled * BASE**value.shift, 0), style)
        return f"{to_string(value.mantissa, style)} S-{-value.shift}"
    sep, radix = ("~", ".~") if style == "paper" else (":", ";")
    ints = sep.join(f"{d:02d}" for d in value.int_digits)
    if value.frac_len == 0:
        return ints
    return ints + radix + sep.join(f"{d:02d}" for d in value.frac_digits)


# --- derived operations -----------------------------------------------------

def reciprocal(x: Sexagesimal) -> PlaceValue:
    """The exact reciprocal r with x*r a power of 60.

    Defined exactly for x whose reduced numerator is regular; irregular
    numbers (the reason tables skip 7, 11, 13, ...) raise IrregularError.
    """
    if x.is_zero:
        raise SexagesimalError("zero has no reciprocal")
    v = x.value
    if not is_regular(v.numerator):
        raise IrregularError(f"irregular number: {v.numerator} has no finite base-60 reciprocal")
    return PlaceValue.from_fraction(1 / v)
