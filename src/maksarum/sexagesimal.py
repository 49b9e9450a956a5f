"""Exact finite base-60 numbers.

A ``Sexagesimal`` is a nonnegative rational whose denominator is a power of
60, stored as ``scaled / 60**frac_len`` with ``scaled`` a plain Python int.
A ``PlaceValue`` is the same value written in floating notation: a
normalized mantissa together with a signed power-of-60 shift, the notation
in which a numeral's scale is a display choice.  All arithmetic is exact;
:class:`fractions.Fraction` serves as the reference rational type.

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
from functools import cache
from itertools import product

BASE = 60


class SexagesimalError(ValueError):
    """Base error for the base-60 kernel."""


class ParseError(SexagesimalError):
    """Malformed numeral text."""


class IrregularError(SexagesimalError):
    """A value has no finite base-60 representation (prime factor not in 2,3,5)."""


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


def _normal(scaled: int, frac_len: int) -> tuple[int, int]:
    """(scaled, frac_len) less its trailing zero fractional digits, two at a time where it can."""
    while frac_len > 1 and not scaled % 3600:
        scaled //= 3600
        frac_len -= 2
    if frac_len and not scaled % BASE:
        scaled //= BASE
        frac_len -= 1
    return scaled, frac_len


def _comparison(op):
    """A rich comparison on exact values; NotImplemented for a type _value_of rejects."""
    def compare(self, other: object) -> bool:
        v = _value_of(other)
        return NotImplemented if v is None else op(self.value, v)
    return compare


class Sexagesimal:
    """Normalized nonnegative finite base-60 number.

    Invariants: every digit lies in [0, 59]; no trailing zero fractional
    digit (frac_len is minimal); canonical zero is the single digit 0 with
    frac_len 0.  Instances are immutable and hashable.

    Equality, ordering and hashing are on the exact rational ``value``, and
    ``+`` and ``*`` take the same operands: a Sexagesimal (PlaceValue
    included), an int or a Fraction, on either side.  Any other type gives
    NotImplemented, so ``==`` is False and ordering or arithmetic raises
    TypeError; a Fraction with no finite base-60 form (1/7) raises
    IrregularError in arithmetic.
    """

    __slots__ = ("_scaled", "_frac_len")

    def __init__(self, scaled: int, frac_len: int = 0):
        if not (isinstance(scaled, int) and isinstance(frac_len, int)):
            types = f"{type(scaled).__name__} and {type(frac_len).__name__}"
            raise TypeError(f"scaled and frac_len must be int, got {types}")
        if scaled < 0:
            raise ValueError(f"sexagesimal values are nonnegative, got {scaled}/60**{frac_len}")
        if frac_len < 0:
            raise ValueError(f"frac_len must be >= 0, got {frac_len}")
        self._scaled, self._frac_len = _normal(scaled, frac_len)  # zero keeps no fractional digit

    @classmethod
    def _of(cls, scaled: int, frac_len: int):
        """An instance of cls worth scaled / 60**frac_len, whatever cls's constructor reads."""
        self = object.__new__(cls)
        Sexagesimal.__init__(self, scaled, frac_len)
        return self

    @classmethod
    def from_fraction(cls, value: Fraction):
        """Exact conversion; IrregularError if the reduced denominator is not 60-smooth."""
        if value < 0:
            raise ValueError(f"sexagesimal values are nonnegative, got {value}")
        k = regular_power(value.denominator)
        return cls._of(int(value * BASE**k), k)

    @classmethod
    def from_digits(cls, int_digits: list[int], frac_digits: list[int] = ()):
        scaled = 0
        for d in list(int_digits) + list(frac_digits):
            if not 0 <= d < BASE:
                raise ValueError(f"digit {d} out of range [0, 59]")
            scaled = scaled * BASE + d
        return cls._of(scaled, len(frac_digits))

    @classmethod
    def truncate(cls, value: "Fraction | Sexagesimal", frac_len: int):
        """Truncate (never round up) to at most frac_len fractional digits."""
        fr = value.value if isinstance(value, Sexagesimal) else value
        if fr < 0:
            raise ValueError("cannot truncate a negative value")
        return cls._of(int(fr * BASE**frac_len), frac_len)

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
        digits = self.digits
        return digits[:len(digits) - self._frac_len]

    @property
    def frac_digits(self) -> list[int]:
        digits = self.digits
        return digits[len(digits) - self._frac_len:]

    @property
    def digits(self) -> list[int]:
        """Every base-60 digit, most significant first: at least one whole, then frac_len."""
        return list(map(int, paper_text(self._scaled, self._frac_len).replace(".~", "~").split("~")))

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self) -> int:
        return hash(self.value)

    def __add__(self, other: "Sexagesimal | int | Fraction") -> "Sexagesimal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        f = max(self._frac_len, other._frac_len)
        a = self._scaled * BASE ** (f - self._frac_len)
        b = other._scaled * BASE ** (f - other._frac_len)
        return Sexagesimal(a + b, f)

    __radd__ = __add__

    def __mul__(self, other: "Sexagesimal | int | Fraction") -> "Sexagesimal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Sexagesimal(self._scaled * other._scaled, self._frac_len + other._frac_len)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Sexagesimal({self._scaled}, {self._frac_len})"


def _value_of(x: object) -> Fraction | None:
    """Exact value of a Sexagesimal, int or Fraction; None for any other type."""
    if isinstance(x, Sexagesimal):
        return x.value
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


def _coerce(v: object) -> Sexagesimal | None:
    """v as a Sexagesimal; None for any type the comparisons also reject.

    A Fraction with no finite base-60 form (1/7) raises IrregularError.
    """
    if isinstance(v, Sexagesimal):
        return v
    value = _value_of(v)
    return None if value is None else Sexagesimal.from_fraction(value)


def _numeral(v: object) -> Sexagesimal:
    """_coerce(v), with TypeError for the types it rejects."""
    s = _coerce(v)
    if s is None:
        raise TypeError(f"cannot coerce {type(v).__name__} to Sexagesimal")
    return s


class PlaceValue(Sexagesimal):
    """A Sexagesimal written in floating notation: mantissa times 60**shift.

    Only construction and the text form differ from Sexagesimal: value,
    comparisons, hashing, ``+`` and ``*`` are the same, so a PlaceValue
    equals any numeral of the same rational value.  The mantissa carries no
    trailing zero digit (it is not divisible by 60).  The text form is
    ``<mantissa> S-n`` when the value has fractional digits and plain digits
    otherwise.  Mantissa-only comparison -- equality up to a power of 60,
    the tablet scribes' working notion -- is ``place_value_equal``.
    """

    __slots__ = ()

    def __init__(self, mantissa: "Sexagesimal | int | Fraction", shift: int = 0):
        m = _numeral(mantissa)
        if shift >= 0:
            super().__init__(m.scaled * BASE**shift, m.frac_len)
        else:
            super().__init__(m.scaled, m.frac_len - shift)

    @property
    def shift(self) -> int:
        n, shift = self.scaled, -self.frac_len
        while n and n % BASE == 0:  # only an integer value has trailing zero digits
            n //= BASE
            shift += 1
        return shift

    @property
    def mantissa(self) -> Sexagesimal:
        return Sexagesimal(self.scaled // BASE ** (self.shift + self.frac_len))

    def __repr__(self) -> str:
        return f"PlaceValue({self.mantissa.scaled}, {self.shift})"


def place_value_equal(a: "Sexagesimal | int | Fraction", b: "Sexagesimal | int | Fraction") -> bool:
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

# a pattern string, not a compiled pattern: re compiles and caches it on the first parse,
# so importing the module compiles nothing
_SUFFIX = r"^(?P<body>.*\S)\s+S-(?P<shift>[0-9]+)$"


def parse(text: str) -> Sexagesimal:
    """Parse a numeral in paper or colon style; an S-n suffix yields a PlaceValue."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    m = re.match(_SUFFIX, s)
    if m:
        return PlaceValue(_parse_body(m.group("body")), -int(m.group("shift")))
    return _parse_body(s)


def _parse_body(body: str) -> Sexagesimal:
    if len(body) > 2 and body.isascii() and body.isdigit():  # three or more digits 0-9
        return Sexagesimal(int(body))
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
        if not (group.isascii() and group.isdigit()) or len(group) > 2:  # isdigit() takes "٣", "²"
            raise ParseError(f"bad digit group {group!r} at position {pos} in {whole!r}")
        val = int(group)
        if val >= BASE:
            raise ParseError(f"digit group {group!r} >= 60 at position {pos} in {whole!r}")
        out.append(val)
        pos += len(group)
    return out


# --- formatting -------------------------------------------------------------

@cache  # on first use, so commands that write no numeral skip its 0.25 MiB
def _digit_pairs() -> tuple[str, ...]:
    """The text "hi~lo" of each r = 60*hi + lo below 60**2, each digit two characters."""
    return tuple(map("~".join, product([f"{d:02d}" for d in range(BASE)], repeat=2)))


def paper_text(scaled: int, frac_len: int = 0) -> str:
    """The paper-style text of scaled / 60**frac_len, for ints >= 0: two characters per
    digit, at least one digit before the radix ".~", and no trailing zero fractional
    digit.  The text of every numeral; two digits come from each divmod by 60**2."""
    if scaled < 0 or frac_len < 0:
        raise ValueError(f"scaled and frac_len must be >= 0, got {scaled} and {frac_len}")
    scaled, frac_len = _normal(scaled, frac_len)
    pairs = _digit_pairs()
    out = []
    while scaled:
        scaled, r = divmod(scaled, 3600)
        out.append(pairs[r])
    if 2 * len(out) <= frac_len:
        out += ["00~00"] * (frac_len // 2 + 1 - len(out))
    out.reverse()
    text = "~".join(out)
    if 2 * len(out) > frac_len + 1 and text.startswith("00"):  # one leading digit too many
        text = text[3:]
    if not frac_len:
        return text
    cut = len(text) - 3 * frac_len  # the "~" before the fractional digits
    return f"{text[:cut]}.~{text[cut + 1:]}"


def to_string(value: "Sexagesimal | int | Fraction", style: str = "paper") -> str:
    """Render a numeral; styles are "paper" (02~49, 01.~12) and "colon" (02:49, 01;12)."""
    if style not in ("paper", "colon"):
        raise ValueError(f"unknown style {style!r}")
    value = _numeral(value)
    if isinstance(value, PlaceValue) and value.frac_len:  # scaled is then the mantissa
        text = f"{paper_text(value.scaled)} S-{value.frac_len}"
    else:
        text = paper_text(value.scaled, value.frac_len)
    return text if style == "paper" else text.replace(".~", ";").replace("~", ":")


# --- derived operations -----------------------------------------------------

def reciprocal(x: Sexagesimal) -> PlaceValue:
    """The exact reciprocal r with x*r a power of 60.

    Defined exactly for x whose reduced numerator is regular; irregular
    numbers (the reason tables skip 7, 11, 13, ...) raise IrregularError.
    """
    if x.is_zero:
        raise SexagesimalError("zero has no reciprocal")
    return PlaceValue(1 / x.value)
