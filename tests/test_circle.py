import os
import subprocess
import sys
from decimal import ROUND_DOWN, Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from maksarum.circle import (
    area_correction_factor,
    area_correction_sexagesimal,
    area_upper,
    outer_ring_ratio,
    pi_decimal,
    pi_digits,
    true_area,
)
from maksarum.sexagesimal import to_string

SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize(
    "k,fraction",
    [
        (1, Fraction(2, 15)),
        (2, Fraction(509, 3600)),
        (3, Fraction(3823, 27000)),
        (5, Fraction(110102447, 777600000)),
        (6, Fraction(1321229369, 9331200000)),
        (7, Fraction(396368810753, 2799360000000)),
        (8, Fraction(23782128645187, 167961600000000)),
    ],
)
def test_truncation_fractions(k, fraction):
    assert pi_digits(k).fractional_part == fraction


def test_truncation_monotone_from_below():
    values = [pi_digits(k).value for k in range(1, 9)]
    for prev, cur in zip(values, values[1:]):
        assert prev <= cur
    assert all(float(v) < 3.14159265358980 for v in values)


def test_k_out_of_range():
    for k in (0, 9, -1):
        with pytest.raises(ValueError):
            pi_digits(k)


def test_rendering():
    assert to_string(pi_digits(8).digits) == "03.~08~29~44~00~47~25~53~07"
    assert to_string(pi_digits(1).digits) == "03.~08"


def test_area_upper():
    assert area_upper(Fraction(12)) == 12
    assert area_upper(Fraction(3)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        area_upper(Fraction(0))


def test_true_area_ratio():
    for c in (Fraction(3), Fraction(12), Fraction(7, 2)):
        a = true_area(c)
        b = area_upper(c)
        ratio = a / (Decimal(b.numerator) / Decimal(b.denominator))
        assert str(ratio).startswith("0.95492965855137")
        assert a < b


def test_area_correction_factor():
    val = area_correction_factor()
    assert str(val).startswith("0.954929658551372")
    assert to_string(area_correction_sexagesimal()) == "00.~57~17~44~48~22"


def test_outer_ring_ratio():
    ratio, trunc = outer_ring_ratio()
    assert str(ratio).startswith("1.023326707946")
    assert to_string(trunc) == "01.~01~23~58~34~08"
    # defining identity, limited by the 21-digit literal here
    assert abs(ratio * ratio - Decimal("3.14159265358979323846") / 3) < Decimal("1e-20")


def test_constants_match_mpmath_to_30_digits():
    # independent oracle: mpmath at 60 digits, rounded to 30 significant digits
    with mpmath.workdps(60):
        oracle = [Decimal(mpmath.nstr(v, 30)) for v in (3 / mpmath.pi, mpmath.sqrt(mpmath.pi / 3))]
    ours = [area_correction_factor(), outer_ring_ratio()[0]]
    assert [d.as_tuple() for d in ours] == [d.as_tuple() for d in oracle]


def _decimal_results():
    return [
        pi_decimal(),
        *(pi_digits(k).error for k in range(1, 9)),
        true_area(Fraction(7)),
        area_correction_factor(),
        outer_ring_ratio()[0],
    ]


def test_results_ignore_the_callers_decimal_context():
    expected = _decimal_results()
    assert str(expected[0]) == "3.14159265358979323846264338328"  # the 30th digit rounds up to 8
    with localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = ROUND_DOWN
        ctx.traps[Inexact] = True
        got = _decimal_results()
    assert [d.as_tuple() for d in got] == [d.as_tuple() for d in expected]


def test_results_ignore_the_default_context_at_import():
    # circle's own context is built at import, so the change to DefaultContext comes first
    code = """
import decimal
from fractions import Fraction
decimal.DefaultContext.prec = 5
decimal.DefaultContext.rounding = decimal.ROUND_DOWN
decimal.DefaultContext.traps[decimal.Inexact] = True
from maksarum.circle import *
print(repr([pi_decimal(), *(pi_digits(k).error for k in range(1, 9)), true_area(Fraction(7)),
            area_correction_factor(), outer_ring_ratio()[0]]))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout == repr(_decimal_results()) + "\n"
