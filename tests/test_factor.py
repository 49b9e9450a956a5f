from fractions import Fraction

import pytest

from maksarum.factor import (
    DegenerateError,
    FourthColumn,
    NonDivisorError,
    ParityError,
    Triple,
    angle_fraction,
    derive_q,
    fourth_column,
    normalized_sides,
    solve_integer,
)
from maksarum.sexagesimal import IrregularError


def test_triple_validates():
    Triple(3, 4, 5)
    with pytest.raises(ValueError):
        Triple(3, 4, 6)
    with pytest.raises(ValueError):
        Triple(0, 4, 4)


def test_solve_integer_examples():
    sol = solve_integer(50, 10)
    assert sol.triple == Triple(119, 120, 169)
    assert (sol.x, sol.y) == (50, 288)
    assert solve_integer(2, 5).triple == Triple(899, 60, 901)


def test_solve_integer_errors():
    with pytest.raises(ParityError):
        solve_integer(27, 6)  # y = 192, parity mismatch
    with pytest.raises(DegenerateError):
        solve_integer(60, 5)  # x = y
    with pytest.raises(NonDivisorError):
        solve_integer(59, 5)
    with pytest.raises(DegenerateError):
        solve_integer(1, 5)


def test_general_scheme():
    assert solve_integer(2, 6, 1).triple == Triple(8, 6, 10)
    # equivalent bundling factors produce the same triple
    assert (
        solve_integer(50, 40, 3).triple
        == solve_integer(50, 10, 12).triple
        == solve_integer(50, 2, 60).triple
        == Triple(119, 120, 169)
    )


def test_m_equivalence_sweep():
    for q in range(1, 16):
        for rec_x in (2, 6, 8):
            try:
                t12 = solve_integer(rec_x, q, 12).triple
            except Exception:
                continue
            assert solve_integer(rec_x, 4 * q, 3).triple == t12
            if q % 5 == 0:
                assert solve_integer(rec_x, q // 5, 60).triple == t12


def test_normalized_sides():
    assert normalized_sides(Fraction(5)) == (Fraction(119, 10), Fraction(169, 10))
    assert normalized_sides(Fraction(6)) == (Fraction(9), Fraction(15))
    a, d = normalized_sides(Fraction(729, 125))
    assert a * a + 144 == d * d
    with pytest.raises(ValueError):
        normalized_sides(Fraction(12))
    with pytest.raises(ValueError):
        normalized_sides(Fraction(13))


def test_derive_q_examples():
    q, t = derive_q(Fraction(119, 10), Fraction(169, 10))
    assert q == 10 and t == Triple(119, 120, 169)
    q, t = derive_q(Fraction(9), Fraction(15))
    assert q == Fraction(1, 3) and t == Triple(3, 4, 5)


def test_derive_q_giza():
    a, d = normalized_sides(Fraction(729, 125))
    assert a == Fraction(190951, 20250)
    q, t = derive_q(a, d)
    assert q == 20250
    assert t == Triple(190951, 243000, 309049)


def test_derive_q_contract_violation():
    with pytest.raises(ValueError, match="contract"):
        derive_q(Fraction(9), Fraction(16))


@pytest.mark.parametrize(
    "triple,coeff,shift",
    [
        (Triple(119, 120, 169), 212415, 3),
        (Triple(2700, 3600, 4500), 2025, 2),
        (Triple(3, 4, 5), 2025, 2),
        (Triple(4961, 6480, 8161), 98446084000000, 8),
        (Triple(3367, 3456, 4825), 2657036484375, 7),
    ],
)
def test_fourth_column_examples(triple, coeff, shift):
    f = fourth_column(triple)
    assert (f.coefficient, f.shift) == (coeff, shift)
    assert f.coefficient % 60 != 0
    assert f.value == Fraction(triple.a**2, triple.b**2)


def test_fourth_column_variants():
    short = fourth_column(Triple(119, 120, 169), "short")
    diag = fourth_column(Triple(119, 120, 169), "diagonal")
    assert diag.value - short.value == 1
    assert diag.shift == short.shift
    assert Fraction(2025, 3600) == fourth_column(Triple(3, 4, 5)).value == Fraction(9, 16)
    assert float(fourth_column(Triple(3, 4, 5)).value) == 0.5625


def test_fourth_column_scale_invariance():
    base = fourth_column(Triple(119, 120, 169))
    for k in range(1, 61):
        assert fourth_column(Triple(119, 120, 169).scaled(k)) == base


def test_fourth_column_irregular_is_none():
    # Q = 7 makes the reduced ratio denominator contain 7^2
    sol = solve_integer(2, 7)
    assert sol.fourth is None
    with pytest.raises(IrregularError):
        fourth_column(sol.triple)
    # but a factor-7 generator can still reduce to a regular ratio
    sol = solve_integer(14, 7)
    assert sol.fourth is not None
    assert sol.fourth.value == Fraction(sol.triple.a**2, sol.triple.b**2)


def test_angle_order():
    assert angle_fraction(Triple(119, 120, 169)) > angle_fraction(Triple(3, 4, 5))
    assert angle_fraction(Triple(3, 4, 5)) < angle_fraction(Triple(119, 120, 169))
    assert angle_fraction(Triple(119, 120, 169)) == angle_fraction(Triple(238, 240, 338))
    assert angle_fraction(Triple(238, 240, 338)) == Fraction(119, 120)
    assert angle_fraction(Triple(45, 60, 75)) == Fraction(3, 4)
