"""The package's value types: text form, equality, hashing, immutability, checks.

Each type is built twice from the same fields; the two must be equal with
equal hashes, print as ``Name(field=value, ...)``, and refuse assignment.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from maksarum.circle import PiApproximation
from maksarum.factor import FourthColumn, GeneratorSolution, Triple
from maksarum.partitions import GeneratorPair
from maksarum.sexagesimal import Sexagesimal
from maksarum.survey import Histogram, SurveyStats
from maksarum.tablet import ErrorModel, FieldCheck, RowReport, TabletRow

T345 = Triple(3, 4, 5)
F = FourthColumn(9, 2)

# (type, constructor arguments, repr)
CASES = [
    (Triple, (3, 4, 5), "Triple(a=3, b=4, d=5)"),
    (FourthColumn, (9, 2), "FourthColumn(coefficient=9, shift=2)"),
    (
        GeneratorSolution,
        (2, 8, 1, 4, T345, F),
        "GeneratorSolution(x=2, y=8, q=1, m=4, triple=Triple(a=3, b=4, d=5), "
        "fourth=FourthColumn(coefficient=9, shift=2))",
    ),
    (
        GeneratorPair,
        (Fraction(9), Fraction(16), 12),
        "GeneratorPair(x=Fraction(9, 1), y=Fraction(16, 1), m=12)",
    ),
    (
        SurveyStats,
        (13, 1, 1, 13, 1, 1),
        "SurveyStats(total=13, pi6_pi4=1, p322=1, distinct_total=13, "
        "distinct_pi6_pi4=1, distinct_p322=1)",
    ),
    (Histogram, (45.0, ((0.0, 45.0, 2), (45.0, 90.0, 0))),
     "Histogram(bin_width=45.0, bins=((0.0, 45.0, 2), (45.0, 90.0, 0)))"),
    (
        TabletRow,
        (1, 10, Triple(119, 120, 169), "none", "01~59", "02~49", 2, False),
        "TabletRow(index=1, q=10, triple=Triple(a=119, b=120, d=169), error_kind='none', "
        "raw_a='01~59', raw_d='02~49', damaged_fourth_digits=2, damaged_label=False)",
    ),
    (FieldCheck, ("a", 119, 119), "FieldCheck(field='a', expected=119, got=119)"),
    (
        RowReport,
        (1, (FieldCheck("a", 119, 119),)),
        "RowReport(index=1, checks=(FieldCheck(field='a', expected=119, got=119),))",
    ),
    (
        ErrorModel,
        (13, "squared_a_row13", "squared", True),
        "ErrorModel(index=13, kind='squared_a_row13', description='squared', reproduced=True)",
    ),
    (
        PiApproximation,
        (Sexagesimal(11309, 2), 2, Decimal("0.0002")),
        "PiApproximation(digits=Sexagesimal(11309, 2), k=2, error=Decimal('0.0002'))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_repr(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, args, text):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, args, text):
    value = cls(*args)
    field = text[len(cls.__name__) + 1:].split("=", 1)[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(value, field, args[0])
    assert value == cls(*args)


@pytest.mark.parametrize("args", [(1, 2, 3), (0, 1, 1), (3, 4, 6), (-3, 4, 5)])
def test_triple_rejects_non_triangles(args):
    with pytest.raises(ValueError):
        Triple(*args)


@pytest.mark.parametrize("args", [
    (Fraction(9), Fraction(17), 12),
    (Fraction(9), Fraction(16), 11),
    (Fraction(-9), Fraction(-16), 12),
    (Fraction(1), Fraction(1), 0),
])
def test_generator_pair_rejects_bad_partitions(args):
    with pytest.raises(ValueError):
        GeneratorPair(*args)


def test_generator_pair_defaults_to_m_12():
    assert GeneratorPair(Fraction(9), Fraction(16)).m == 12


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_no_other_attribute_can_be_set(cls, args, text):
    with pytest.raises(AttributeError):
        cls(*args).extra = 1


def test_replace_keeps_the_checks():
    assert T345._replace(a=4, b=3) == Triple(4, 3, 5)
    with pytest.raises(ValueError):
        T345._replace(a=1)
    pair = GeneratorPair(Fraction(9), Fraction(16))
    assert pair._replace(x=Fraction(16), y=Fraction(9)) == GeneratorPair(Fraction(16), Fraction(9))
    with pytest.raises(ValueError):
        pair._replace(m=11)


def test_value_types_are_tuples():
    # named tuples: equal to the plain tuple of their fields, and ordered like it
    assert T345 == (3, 4, 5) and tuple(T345) == (3, 4, 5)
    assert sorted([Triple(5, 12, 13), T345]) == [T345, Triple(5, 12, 13)]
    a, b, d = T345
    assert (a, b, d) == (T345.a, T345.b, T345.d)
