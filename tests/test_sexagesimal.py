import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from maksarum.sexagesimal import (
    IrregularError,
    ParseError,
    PlaceValue,
    Sexagesimal,
    paper_text,
    parse,
    place_value_equal,
    reciprocal,
    to_string,
)


@pytest.mark.parametrize(
    "text,value",
    [
        ("02~49", 169),
        ("00", 0),
        ("01.~12", Fraction(6, 5)),
        ("01 59", 119),
        ("01. 12", Fraction(6, 5)),
        ("02:49", 169),
        ("01;12", Fraction(6, 5)),
        (".~45", Fraction(3, 4)),
        ("00.~57~17~44", Fraction(57 * 3600 + 17 * 60 + 44, 60**3)),
        ("212415", 212415),
        ("5", 5),
    ],
)
def test_parse_values(text, value):
    assert parse(text).value == value


def test_parse_suffix_gives_place_value():
    pv = parse("212415 S-3")
    assert isinstance(pv, PlaceValue)
    assert pv.mantissa.scaled == 212415
    assert pv.shift == -3
    assert pv.value == Fraction(212415, 60**3) == Fraction(119**2, 120**2)
    assert parse("59~00~15 S-3") == pv


@pytest.mark.parametrize(
    "text",
    ["", "   ", "60", "02~60", "99", "1~2~", "01.~12.~13", "01;12;13", "ab", "0 1 x",
     "\u0663", "01.~1\uff12", "\u00b2", "212415 S-\u0663", "\u0663\u0663\u0663"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_names_position():
    with pytest.raises(ParseError, match="position"):
        parse("02~61")


@pytest.mark.parametrize(
    "value,paper,colon",
    [
        (Sexagesimal(169), "02~49", "02:49"),
        (Sexagesimal.from_fraction(Fraction(6, 5)), "01.~12", "01;12"),
        (Sexagesimal(0), "00", "00"),
        (Sexagesimal.from_fraction(Fraction(3, 4)), "00.~45", "00;45"),
    ],
)
def test_format_styles(value, paper, colon):
    assert to_string(value, "paper") == paper
    assert to_string(value, "colon") == colon
    assert str(value) == paper


def test_format_place_value():
    assert to_string(PlaceValue(212415, -3)) == "59~00~15 S-3"
    assert to_string(PlaceValue(45, 1)) == "45~00"


def test_add_mul_examples():
    assert parse("01.~12") * parse("50") == Sexagesimal(60)
    assert to_string(parse("01.~12") * parse("50")) == "01~00"
    x = parse("03~25.~12")
    assert x + Sexagesimal(0) == x
    sq = parse("02~41") * parse("02~41")
    assert sq == 161 * 161 == 25921
    assert to_string(sq) == "07~12~01"


def test_mul_frac_len_bound():
    a = Sexagesimal(7, 2)
    b = Sexagesimal(11, 3)
    assert (a * b).frac_len <= a.frac_len + b.frac_len


def test_normalization_invariants():
    v = Sexagesimal(212415 * 60 * 60, 2)  # trailing zero fractional digits stripped
    assert v.frac_len == 0 and v.scaled == 212415
    assert all(0 <= d < 60 for d in v.digits)
    z = Sexagesimal(0, 5)
    assert z.frac_len == 0 and z.scaled == 0 and z.digits == [0]


@pytest.mark.parametrize(
    "x,mantissa",
    [("05", 12), ("01", 1), ("01.~21", parse("44.~26~40"))],
)
def test_reciprocal_table_pairs(x, mantissa):
    r = reciprocal(parse(x))
    assert place_value_equal(r, mantissa if isinstance(mantissa, Sexagesimal) else Fraction(mantissa))
    # exact contract: x * r is a power of 60
    prod = parse(x).value * r.value
    assert place_value_equal(prod, 1)


def test_reciprocal_errors():
    with pytest.raises(IrregularError, match="irregular"):
        reciprocal(Sexagesimal(7))
    with pytest.raises(IrregularError, match="irregular"):
        reciprocal(parse("00.~07"))  # 7/60, a fraction whose reciprocal 60/7 is irregular
    with pytest.raises(ValueError):
        reciprocal(Sexagesimal(0))


def test_place_value_equality_semantics():
    # exact values compare equal across representations
    assert PlaceValue(45, 1) == Sexagesimal(2700)
    assert PlaceValue(45, 1) != Sexagesimal(45)
    # mantissa comparison ignores the power of 60
    assert place_value_equal(2700, 45)
    assert place_value_equal(Fraction(1, 300), 12)
    assert not place_value_equal(2700, 46)
    assert place_value_equal(0, 0) and not place_value_equal(0, 60)


sexagesimals = st.builds(
    Sexagesimal, st.integers(min_value=0, max_value=60**7), st.integers(min_value=0, max_value=5)
)


@given(sexagesimals, st.sampled_from(["paper", "colon"]))
def test_roundtrip_property(v, style):
    assert parse(to_string(v, style)) == v


@given(st.integers(min_value=1, max_value=60**6), st.integers(min_value=-8, max_value=4),
       st.sampled_from(["paper", "colon"]))
def test_place_value_roundtrip_property(mantissa, shift, style):
    pv = PlaceValue(mantissa, shift)
    assert parse(to_string(pv, style)) == pv


def _expected_text(value: Fraction, style: str) -> str:
    """The base-60 text of value >= 0 built with Fraction arithmetic, no package code."""
    sep, radix = ("~", ".~") if style == "paper" else (":", ";")
    whole = value.numerator // value.denominator
    rest, ints, fracs = value - whole, [], []
    while True:
        whole, d = divmod(whole, 60)
        ints.insert(0, d)
        if not whole:
            break
    while rest:
        rest *= 60
        fracs.append(rest.numerator // rest.denominator)
        rest -= fracs[-1]
    text = sep.join(f"{d:02d}" for d in ints)
    return text + radix + sep.join(f"{d:02d}" for d in fracs) if fracs else text


@given(st.integers(min_value=0, max_value=60**30), st.integers(min_value=0, max_value=25),
       st.sampled_from(["paper", "colon"]))
def test_to_string_matches_fraction_expansion(scaled, frac_len, style):
    value = Fraction(scaled, 60**frac_len)
    assert to_string(Sexagesimal(scaled, frac_len), style) == _expected_text(value, style)
    assert to_string(value, style) == _expected_text(value, style)


@given(st.integers(min_value=0, max_value=60**12), st.integers(min_value=-12, max_value=4),
       st.sampled_from(["paper", "colon"]))
def test_place_value_to_string_matches_fraction_expansion(mantissa, shift, style):
    value = Fraction(mantissa) * Fraction(60) ** shift
    n = 0  # the fewest fractional digits: the text is mantissa S-n
    while (value * 60**n).denominator != 1:
        n += 1
    expected = _expected_text(value * 60**n, style) + (f" S-{n}" if n else "")
    assert to_string(PlaceValue(mantissa, shift), style) == expected


def _divmod_digits(scaled: int, frac_len: int) -> tuple[list[int], int]:
    """The digits of scaled / 60**frac_len, one divmod by 60 each, most significant first,
    at least one before the radix, with the trailing zero fractional digits dropped."""
    digits = []
    while scaled or len(digits) <= frac_len:
        scaled, d = divmod(scaled, 60)
        digits.append(d)
    digits.reverse()
    while frac_len and digits[-1] == 0:
        digits.pop()
        frac_len -= 1
    return digits, frac_len


@given(st.lists(st.integers(min_value=0, max_value=59), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=70),
       st.sampled_from(["paper", "colon"]))
@example([0], 0, 3, "paper")  # zero
@example([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 0, 11, "colon")  # 60**11 + 1 > 2**64
def test_text_matches_a_divmod_loop(digits, zeros, frac_len, style):
    scaled = 0
    for d in digits + [0] * zeros:  # trailing zeros to strip when frac_len reaches them
        scaled = scaled * 60 + d
    want, f = _divmod_digits(scaled, frac_len)
    sep, radix = ("~", ".~") if style == "paper" else (":", ";")
    cells = [f"{d:02d}" for d in want]
    whole = sep.join(cells[:len(cells) - f])
    text = whole + radix + sep.join(cells[len(cells) - f:]) if f else whole
    value = Sexagesimal(scaled, frac_len)
    assert to_string(value, style) == text
    if style == "paper":
        assert paper_text(scaled, frac_len) == text
    assert (value.digits, value.int_digits, value.frac_digits) == (want, want[:len(want) - f], want[len(want) - f:])
    # a PlaceValue writes its mantissa, the digits with no leading or trailing zero, then S-f
    mantissa = sep.join(cells[next((i for i, d in enumerate(want) if d), len(want) - 1):])
    assert to_string(PlaceValue(scaled, -frac_len), style) == (f"{mantissa} S-{f}" if f else text)


def test_paper_text_refuses_a_negative():
    for args in ((-1, 0), (5, -1)):
        with pytest.raises(ValueError):
            paper_text(*args)


@given(sexagesimals, sexagesimals)
def test_arithmetic_matches_rational_oracle(a, b):
    assert (a + b).value == a.value + b.value
    assert (a * b).value == a.value * b.value
    assert all(0 <= d < 60 for d in (a + b).digits + (a * b).digits)


@given(sexagesimals)
def test_reciprocal_contract_property(x):
    num = x.value.numerator
    if x.is_zero:
        return
    if max(sympy.factorint(num), default=1) <= 5:  # num is regular
        assert place_value_equal(x.value * reciprocal(x).value, 1)
    else:
        with pytest.raises(IrregularError):
            reciprocal(x)


def test_place_value_with_a_positive_shift():
    pv = PlaceValue(12, 2)  # the shift strips the two trailing zero digits of 43200
    assert repr(pv) == "PlaceValue(12, 2)"
    assert (pv.shift, pv.mantissa, to_string(pv)) == (2, 12, "12~00~00")
    assert pv == 43200


def test_ordering_examples():
    assert Sexagesimal(2) > 1 and Sexagesimal(2) >= 2 and 1 < Sexagesimal(2)
    assert PlaceValue(1, -1) < PlaceValue(1, 0) <= Sexagesimal(1) < Fraction(61, 60)
    assert sorted([PlaceValue(2), Sexagesimal(1, 1), 1]) == [Sexagesimal(1, 1), 1, 2]
    assert Sexagesimal(1) != "01"
    with pytest.raises(TypeError):
        Sexagesimal(1) < "01"


# small values so that equal operands of different types come up often
small_fractions = st.builds(
    lambda k, f: Fraction(k, 60**f), st.integers(min_value=0, max_value=120), st.integers(0, 1)
)
sexagesimal_numerals = small_fractions.map(Sexagesimal.from_fraction)
numerals = st.one_of(sexagesimal_numerals, small_fractions.map(PlaceValue.from_fraction))
comparands = st.one_of(numerals, small_fractions, st.integers(min_value=0, max_value=120))
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


def _oracle(x):
    return x.value if isinstance(x, (Sexagesimal, PlaceValue)) else Fraction(x)


@given(numerals, comparands, st.sampled_from(COMPARISONS))
def test_comparisons_match_fraction_oracle(a, b, op):
    assert op(a, b) == op(a.value, _oracle(b))
    assert op(b, a) == op(_oracle(b), a.value)


@given(numerals, comparands, st.sampled_from([operator.add, operator.mul]))
def test_arithmetic_operands_match_fraction_oracle(a, b, op):
    for result in (op(a, b), op(b, a)):
        assert isinstance(result, Sexagesimal)
        assert result.value == op(a.value, _oracle(b))


def test_arithmetic_operand_examples():
    half = Fraction(1, 2)
    assert Sexagesimal(1) + half == half + Sexagesimal(1) == Sexagesimal(90, 1) == Fraction(3, 2)
    assert Sexagesimal(2) * PlaceValue(1, -1) == Sexagesimal(2, 1)
    assert PlaceValue(Fraction(1, 2)) == PlaceValue(30, -1)
    assert PlaceValue(1, -1) + 1 == 1 + PlaceValue(1, -1) == Sexagesimal(61, 1) == Fraction(61, 60)
    assert PlaceValue(1, -1) * PlaceValue(1, -1) == Fraction(1, 3600)
    assert repr(PlaceValue(12, -1)) == "PlaceValue(12, -1)"
    for op in (operator.add, operator.mul):
        with pytest.raises(IrregularError):
            op(Sexagesimal(1), Fraction(1, 7))
        with pytest.raises(IrregularError):
            op(Fraction(1, 7), Sexagesimal(1))
        for other in (1.5, "01"):
            with pytest.raises(TypeError):
                op(Sexagesimal(1), other)
            with pytest.raises(TypeError):
                op(other, Sexagesimal(1))
    with pytest.raises(TypeError):
        PlaceValue(1.5)
    for args in ((1.5,), (Fraction(3, 2),), (1, 1.0)):
        with pytest.raises(TypeError):
            Sexagesimal(*args)
    for other in ("01", 1.5):
        with pytest.raises(TypeError):
            to_string(other)


def test_roundtrip_random_bulk():
    rng = random.Random(322)
    for _ in range(2000):
        v = Sexagesimal(rng.randrange(60**8), rng.randrange(7))
        assert parse(to_string(v)) == v
        assert parse(to_string(v, "colon")) == v
