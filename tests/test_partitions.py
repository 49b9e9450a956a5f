from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from maksarum.factor import Triple
from maksarum.partitions import (
    GeneratorPair,
    enumerate_bounded,
    k_star,
    pair_solution,
    partition_table,
    scale_to_partition,
    standard_table,
    step,
    step_by_s,
)
from maksarum.sexagesimal import IrregularError, parse, place_value_equal


def test_standard_table_shape():
    table = standard_table()
    assert len(table) == 30
    assert (table[0].n.value, table[0].nbar.value) == (2, 30)
    values = {(p.n.value, p.nbar.value) for p in table}
    assert (25, Fraction(12, 5)) in values


def test_standard_table_products_are_powers_of_60():
    for pair in standard_table():
        assert place_value_equal(pair.n.value * pair.nbar.value, 1)
        assert pair.n.value * pair.nbar.value == 60  # this table is the times-60 one


def test_reciprocal_operation_matches_table():
    from maksarum.sexagesimal import reciprocal

    for pair in standard_table():
        assert place_value_equal(reciprocal(pair.n).value, pair.nbar.value)
        assert place_value_equal(reciprocal(pair.nbar).value, pair.n.value)


def test_scale_to_partition():
    u, v = Fraction(1), Fraction(12, 5)
    table = {p.n.value: p for p in standard_table()}
    assert scale_to_partition(table[5], u, v) == GeneratorPair(Fraction(5), Fraction(144, 5))
    assert scale_to_partition(table[9], u, v) == GeneratorPair(Fraction(9), Fraction(16))
    assert scale_to_partition(table[12], u, v) == GeneratorPair(Fraction(12), Fraction(12))
    with pytest.raises(ValueError, match="contract"):
        scale_to_partition(table[5], Fraction(1), Fraction(2))


def test_k_star_examples():
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    out = k_star(parse("01.~07~30").value, g)
    assert out == GeneratorPair(parse("05.~37~30").value, parse("25.~36").value)
    assert k_star(Fraction(1), g) == g
    g2 = GeneratorPair(Fraction(32), Fraction(9, 2))
    out2 = k_star(1 / parse("01.~12").value, g2)
    assert out2 == GeneratorPair(parse("26.~40").value, parse("05.~24").value)


def test_k_star_irregular_scaling():
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    with pytest.raises(IrregularError, match="irregular"):
        k_star(Fraction(7), g)


def test_step_examples():
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    out = step(g, Fraction(225, 3600))
    assert out == GeneratorPair(parse("05.~03~45").value, parse("28.~26~40").value)
    assert step(g, Fraction(0)) == g
    assert out.x * out.y == 144


def test_step_by_s_inverse_form():
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    stepped = step(g, Fraction(1, 16))
    s = g.y - stepped.y
    assert step_by_s(g, s) == stepped


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 10)),
)
def test_step_conserves_product(e):
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    out = step(g, e)
    assert out.x * out.y == 144


@given(st.integers(-6, 6), st.integers(-4, 4), st.integers(-3, 3))
def test_k_star_closure_on_regular_factors(a, b, c):
    k = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
    g = GeneratorPair(Fraction(5), Fraction(144, 5))
    out = k_star(k, g)
    assert out.x * out.y == 144
    assert out.x > 0 and out.y > 0


def test_generator_pair_validates():
    with pytest.raises(ValueError):
        GeneratorPair(Fraction(5), Fraction(5))
    with pytest.raises(ValueError):
        GeneratorPair(Fraction(-5), Fraction(-144, 5))


def test_enumerate_bounded_three_digits():
    pairs = enumerate_bounded(12, 3)
    assert (pairs[-1].x, pairs[-1].y) == (Fraction(320, 27), Fraction(243, 20))
    # ascending X, descending Y, product conserved
    for prev, cur in zip(pairs, pairs[1:]):
        assert prev.x < cur.x and prev.y > cur.y
    for p in pairs:
        assert p.x * p.y == 144
        assert p.x < p.y


def test_enumerate_bounded_band_window():
    lo, hi = Fraction(5), parse("06.~40").value
    band = enumerate_bounded(12, 3, (lo, hi))
    assert len(band) == 19
    tablet_x = {p[1].x for p in partition_table() if p[0] is not None}
    assert tablet_x <= {p.x for p in band}
    assert len(tablet_x) == 15


def test_enumerate_bounded_zero_digits():
    pairs = enumerate_bounded(12, 0)
    assert [p.x for p in pairs] == [6, 8]  # integer pairs with integer half-difference


def test_enumerate_bounded_anchor_places():
    pairs = enumerate_bounded(12, 3)
    assert pair_solution(pairs[19])[1] == Triple(175, 288, 337)  # place 20
    assert pair_solution(pairs[-1])[1] == Triple(161, 12960, 12961)


def test_bounded_pairs_are_the_integer_scheme_at_scale():
    # a k-digit pair scaled by 60**k is exactly an integer solution against Q = 60**k
    from maksarum.survey import enumerate_solutions

    k = 2
    scale = 60**k
    pairs = enumerate_bounded(12, k)
    scaled_x = [p.x * scale for p in pairs]
    solutions = [
        r.x
        for r in enumerate_solutions([scale])
        if r.triple.a < r.triple.b  # the bounded table keeps theta < pi/4 only
    ]
    assert scaled_x == solutions


@pytest.mark.parametrize(
    "m, k",
    [(m, k) for m in (1, 3, 5, 12, 20, 60) for k in (0, 1, 2, 3)]
    + [(12, 22), (20, 22), (1000003, 2)],  # the benchmark's tables and a large prime M
)
def test_enumerate_bounded_matches_sympy_divisor_scan(m, k):
    # oracle: complementary divisors xi < yi of m**2 * 60**(2k), equal parity, A < m
    scale = 60**k
    total = m * m * scale * scale
    expected = [
        (Fraction(xi, scale), Fraction(total // xi, scale))
        for xi in sympy.divisors(total)
        if xi * xi < total
        and (total // xi - xi) % 2 == 0
        and total // xi - xi < 2 * m * scale
    ]
    assert [(p.x, p.y) for p in enumerate_bounded(m, k)] == expected
    lo, hi = Fraction(m, 2), Fraction(3 * m, 4)
    window = [(x, y) for x, y in expected if lo <= x <= hi]
    assert [(p.x, p.y) for p in enumerate_bounded(m, k, (lo, hi))] == window
    if len(expected) >= 3:  # bounds equal to pair values are both kept
        lo, hi = expected[1][0], expected[-2][0]
        assert [(p.x, p.y) for p in enumerate_bounded(m, k, (lo, hi))] == expected[1:-1]
        assert [(p.x, p.y) for p in enumerate_bounded(m, k, (lo, lo))] == expected[1:2]


def test_enumerate_bounded_four_digits_contains_giza():
    pairs = enumerate_bounded(12, 4)
    giza = [p for p in pairs if p.x == Fraction(729, 125)]
    assert len(giza) == 1
    q, t = pair_solution(giza[0])
    assert q == 20250 and t == Triple(190951, 243000, 309049)


def test_partition_table_band():
    rows = partition_table()
    assert len(rows) == 16
    assert [place for place, *_ in rows] == list(range(1, 16)) + [None]
    for place, pair, a_side, d_side in rows:
        assert pair.x * pair.y == 144
        assert a_side == (pair.y - pair.x) / 2 and d_side == (pair.y + pair.x) / 2
        if place is not None:
            assert Fraction(5) <= pair.x <= Fraction(20, 3)
            assert Fraction(108, 5) <= pair.y <= Fraction(144, 5)
    assert rows[-1][1].x == Fraction(27, 4)


def test_partition_table_known_sides():
    rows = partition_table()
    # first and ninth tablet generators
    assert rows[0][2] == parse("11.~54").value and rows[0][3] == parse("16.~54").value
    eighth = rows[7]
    assert eighth[2] == parse("09.~59~15").value and eighth[3] == parse("15.~36~45").value


def test_partition_table_other_bundling_factors():
    # factor-3 generators are a quarter of the factor-12 ones, factor-60 five times
    rows3 = partition_table(3)
    rows60 = partition_table(60)
    assert rows3[0][1].x == Fraction(5, 4) == parse("01.~15").value
    assert rows60[0][1].x == 25
    for (_, p3, *_), (_, p12, *_), (_, p60, *_) in zip(rows3, partition_table(), rows60):
        assert p3.x * 4 == p12.x and p60.x == 5 * p12.x
        assert p3.x * p3.y == 9 and p60.x * p60.y == 3600
