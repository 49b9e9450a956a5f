"""The fifteen-row tablet dataset: raw carved values, corrections, and reports.

Each row stores the as-carved short side and diagonal (with the scribe's
errors intact), the corrected integer triple, the scale generator Q against
b = 12*Q, and which of the four error models applies.  Report functions
recompute everything from generators and check the stored data exactly.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .factor import FourthColumn, Triple, fourth_column, solve_integer
from .ntheory import is_prime
from .sexagesimal import Sexagesimal, paper_text, parse, place_value_equal, to_string

ERROR_NONE = "none"
ERROR_WRONG_D_ROW2 = "wrong_d_row2"
ERROR_TYPO_A_ROW9 = "typo_a_row9"
ERROR_SQUARED_A_ROW13 = "squared_a_row13"
ERROR_SCALE_ROW15 = "scale_row15"

#: residues mod 60 that can contain primes > 5, as the congruence analysis lists them
SET_C = frozenset({1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 49, 53, 59})


class TabletRow(namedtuple(
    "TabletRow", "index q triple error_kind raw_a raw_d damaged_fourth_digits damaged_label"
)):
    """One tablet row: index: int, scale q: int, corrected triple: Triple, error_kind: str,
    the as-carved raw_a: str and raw_d: str, damaged_fourth_digits: int (leading ratio-column
    digits restored from damage) and damaged_label: bool."""

    __slots__ = ()

    @property
    def x(self) -> int:
        return self.triple.d - self.triple.a

    @property
    def fourth(self) -> FourthColumn:
        return fourth_column(self.triple)

    @property
    def raw_fourth(self) -> str:
        """Restored ratio column as carved: the diagonal reading d**2/b**2 = a**2/b**2 + 1."""
        f = self.fourth
        return paper_text(f.coefficient + 60**f.shift)


# index, Q, (a, b, d), error kind, raw a, raw d, damaged ratio digits, damaged label
_ROWS = [
    (1, 10, (119, 120, 169), ERROR_NONE, "01~59", "02~49", 2, False),
    (2, 288, (3367, 3456, 4825), ERROR_WRONG_D_ROW2, "56~07", "03~12~01", 3, False),
    (3, 400, (4601, 4800, 6649), ERROR_NONE, "01~16~41", "01~50~49", 3, False),
    (4, 1125, (12709, 13500, 18541), ERROR_NONE, "03~31~49", "05~09~01", 3, False),
    (5, 6, (65, 72, 97), ERROR_NONE, "01~05", "01~37", 1, True),
    (6, 30, (319, 360, 481), ERROR_NONE, "05~19", "08~01", 1, True),
    (7, 225, (2291, 2700, 3541), ERROR_NONE, "38~11", "59~01", 1, False),
    (8, 80, (799, 960, 1249), ERROR_NONE, "13~19", "20~49", 1, False),
    (9, 50, (481, 600, 769), ERROR_TYPO_A_ROW9, "09~01", "12~49", 1, False),
    (10, 540, (4961, 6480, 8161), ERROR_NONE, "01~22~41", "02~16~01", 1, False),
    (11, 5, (45, 60, 75), ERROR_NONE, "45~00", "01~15~00", 1, False),
    (12, 200, (1679, 2400, 2929), ERROR_NONE, "27~59", "48~49", 1, False),
    (13, 20, (161, 240, 289), ERROR_SQUARED_A_ROW13, "07~12~01", "04~49", 1, False),
    (14, 225, (1771, 2700, 3229), ERROR_NONE, "29~31", "53~49", 1, False),
    (15, 225, (1680, 2700, 3180), ERROR_SCALE_ROW15, "56", "53", 1, True),
]

_TABLE = [
    TabletRow(i, q, Triple(*t), kind, ra, rd, dmg, lbl)
    for (i, q, t, kind, ra, rd, dmg, lbl) in _ROWS
]


def corrected_table() -> list[TabletRow]:
    """The fifteen corrected rows, tablet order."""
    return list(_TABLE)


def p322_q_set() -> list[int]:
    """Distinct scale generators used on the tablet, ascending (225 counted once)."""
    return sorted({row.q for row in _TABLE})


class FieldCheck(namedtuple("FieldCheck", "field expected got")):
    """One recomputed field: its name field: str, the stored expected: object and the
    recomputed got: object."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.expected == self.got


class RowReport(namedtuple("RowReport", "index checks")):
    """The checks: tuple[FieldCheck, ...] of the row numbered index: int."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def reconstruct(row: TabletRow) -> RowReport:
    """Recompute the row from (x = d - a, Q) and compare every stored field."""
    sol = solve_integer(row.x, row.q, 12)
    f = sol.fourth
    stored = row.fourth
    checks = (
        FieldCheck("a", row.triple.a, sol.triple.a),
        FieldCheck("b", row.triple.b, sol.triple.b),
        FieldCheck("d", row.triple.d, sol.triple.d),
        FieldCheck("q", row.q, sol.q),
        FieldCheck("fourth_coefficient", stored.coefficient, f.coefficient if f else None),
        FieldCheck("fourth_shift", stored.shift, f.shift if f else None),
        FieldCheck("raw_matches", True, _raw_consistent(row)),
    )
    return RowReport(row.index, checks)


def _raw_consistent(row: TabletRow) -> bool:
    """Raw carved a and d equal the corrected sides up to a power of 60, unless errored."""
    if row.error_kind != ERROR_NONE:
        return True
    return place_value_equal(parse(row.raw_a), row.triple.a) and place_value_equal(
        parse(row.raw_d), row.triple.d
    )


def reconstruct_all() -> list[RowReport]:
    return [reconstruct(row) for row in _TABLE]


class ErrorModel(namedtuple("ErrorModel", "index kind description reproduced")):
    """A carved error: row index: int, kind: str, description: str, and reproduced: bool,
    true when the arithmetic reproduces what was carved."""

    __slots__ = ()


def explain_errors() -> list[ErrorModel]:
    """Reproduce each carved error arithmetically from the corrected data."""
    out = []

    row2 = _TABLE[1]
    wrong = 161 * 161 - 120 * 120
    out.append(
        ErrorModel(
            2,
            ERROR_WRONG_D_ROW2,
            f"(02~41)^2 - (02~00)^2 = {paper_text(wrong)} "
            f"(the diagonal carved in place of {paper_text(row2.triple.d)})",
            parse(row2.raw_d) == wrong,
        )
    )

    row9 = _TABLE[8]
    digits = Sexagesimal(row9.triple.a).int_digits
    swapped = Sexagesimal.from_digits([9 if digits[0] == 8 else 8] + digits[1:])
    out.append(
        ErrorModel(
            9,
            ERROR_TYPO_A_ROW9,
            f"leading digit 8~9 swap: {paper_text(row9.triple.a)} carved as "
            f"{to_string(swapped)}",
            parse(row9.raw_a) == swapped,
        )
    )

    row13 = _TABLE[12]
    squared = row13.triple.a ** 2
    out.append(
        ErrorModel(
            13,
            ERROR_SQUARED_A_ROW13,
            f"{paper_text(squared)} = (02~41)^2: the short side carved squared",
            parse(row13.raw_a) == squared,
        )
    )

    repairs = row15_repairs()
    adopted = repairs[2][1] == _TABLE[14].triple
    lines = ", ".join(f"{name} -> ({t.a}, {t.b}, {t.d})" for name, t in repairs)
    out.append(ErrorModel(15, ERROR_SCALE_ROW15, f"three repairs: {lines}", adopted))
    return out


def row15_repairs() -> list[tuple[str, Triple]]:
    """The three consistent repairs of the final row's carved (a=56, d=53)."""
    row15 = _TABLE[14]
    raw_a, raw_d = int(parse(row15.raw_a).value), int(parse(row15.raw_d).value)
    return [
        ("double_d", Triple(raw_a, 90, 2 * raw_d)),
        ("halve_a", Triple(raw_a // 2, 45, raw_d)),
        ("scale_60", Triple(raw_a // 2 * 60, 2700, raw_d * 60)),
    ]


class CongruenceLine(namedtuple("CongruenceLine", "index residues identity_holds in_set_c")):
    """Row index: int, its residues: tuple[int, int, int] ([a], [b], [d] mod 60), whether
    identity_holds: bool mod 60, and in_set_c: int, how many of [a], [d] lie in SET_C."""

    __slots__ = ()


class CongruenceReport(namedtuple("CongruenceReport", "lines")):
    """The lines: tuple[CongruenceLine, ...] of every row."""

    __slots__ = ()

    @property
    def set_c_count(self) -> int:
        return sum(line.in_set_c for line in self.lines)


def congruence_report() -> CongruenceReport:
    """Residues mod 60 of every row and their membership in the prime-residue set.

    Residues are read off the last sexagesit in floating notation: common
    trailing zero places (a shared factor that is a power of 60) are dropped
    first, which is how the final row reads (28, 45, 53) rather than (0, 0, 0).
    """
    lines = []
    for row in _TABLE:
        a, b, d = row.triple
        g = gcd(gcd(a, b), d)
        while g % 60 == 0:
            a, b, d, g = a // 60, b // 60, d // 60, g // 60
        ra, rb, rd = a % 60, b % 60, d % 60
        lines.append(
            CongruenceLine(
                row.index,
                (ra, rb, rd),
                (ra * ra + rb * rb) % 60 == (rd * rd) % 60,
                (ra in SET_C) + (rd in SET_C),
            )
        )
    return CongruenceReport(tuple(lines))


class PrimeLine(namedtuple("PrimeLine", "index a_prime d_prime")):
    """Row index: int, with a_prime: bool and d_prime: bool, true when its a or d is prime."""

    __slots__ = ()


class PrimeReport(namedtuple("PrimeReport", "lines raw_row15_d raw_row15_d_prime")):
    """The lines: tuple[PrimeLine, ...] of every row, the carved final-row diagonal
    raw_row15_d: int and whether it is prime, raw_row15_d_prime: bool."""

    __slots__ = ()

    @property
    def diagonal_prime_count(self) -> int:
        """Primes among the diagonal values, counting the raw final-row 53."""
        return sum(line.d_prime for line in self.lines) + self.raw_row15_d_prime


def prime_report() -> PrimeReport:
    lines = tuple(
        PrimeLine(row.index, is_prime(row.triple.a), is_prime(row.triple.d)) for row in _TABLE
    )
    return PrimeReport(lines, 53, is_prime(53))
