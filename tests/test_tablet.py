from pathlib import Path

import pytest

from maksarum.factor import Triple, angle_fraction
from maksarum.sexagesimal import parse, place_value_equal
from maksarum.tablet import (
    ERROR_NONE,
    SET_C,
    congruence_report,
    corrected_table,
    explain_errors,
    p322_q_set,
    prime_report,
    reconstruct,
    reconstruct_all,
    row15_repairs,
    to_tsv,
)

GOLDEN = Path(__file__).parent / "golden"


def test_q_column():
    assert [r.q for r in corrected_table()] == [
        10, 288, 400, 1125, 6, 30, 225, 80, 50, 540, 5, 200, 20, 225, 225,
    ]


def test_known_rows():
    rows = corrected_table()
    assert rows[0].triple == Triple(119, 120, 169) and rows[0].q == 10
    assert rows[12].triple == Triple(161, 240, 289) and rows[12].q == 20
    assert rows[14].triple == Triple(1680, 2700, 3180) and rows[14].q == 225


def test_b_is_12q_everywhere():
    for row in corrected_table():
        assert row.triple.b == 12 * row.q


def test_reconstruct_all_pass():
    reports = reconstruct_all()
    assert len(reports) == 15
    for rep in reports:
        assert rep.ok, (rep.index, [c for c in rep.checks if not c.ok])


def test_reconstruct_row_fields():
    rows = corrected_table()
    rep = reconstruct(rows[0])
    got = {c.field: c.got for c in rep.checks}
    assert got["fourth_coefficient"] == 212415 and got["fourth_shift"] == 3
    rep10 = reconstruct(rows[9])
    got10 = {c.field: c.got for c in rep10.checks}
    assert got10["fourth_coefficient"] == 98446084000000 and got10["fourth_shift"] == 8
    assert rows[9].x == 3200


def test_raw_values_match_corrected_in_place_value():
    for row in corrected_table():
        if row.error_kind != ERROR_NONE:
            continue
        assert place_value_equal(parse(row.raw_a), row.triple.a), row.index
        assert place_value_equal(parse(row.raw_d), row.triple.d), row.index


def test_raw_row11_uses_floating_notation():
    row11 = corrected_table()[10]
    assert parse(row11.raw_a).value == 2700  # carved with a trailing zero place
    assert place_value_equal(parse(row11.raw_a), 45)


def test_explain_errors():
    models = {m.index: m for m in explain_errors()}
    assert set(models) == {2, 9, 13, 15}
    assert all(m.reproduced for m in models.values())
    assert parse(corrected_table()[1].raw_d).value == 11521 == 161**2 - 120**2
    assert parse(corrected_table()[12].raw_a).value == 25921 == 161**2
    assert parse(corrected_table()[8].raw_a).value == 541


def test_row15_repairs():
    repairs = dict((name, t) for name, t in row15_repairs())
    assert repairs["double_d"] == Triple(56, 90, 106)
    assert repairs["halve_a"] == Triple(28, 45, 53)
    assert repairs["scale_60"] == Triple(1680, 2700, 3180) == corrected_table()[14].triple


def test_congruence_report():
    rep = congruence_report()
    assert len(rep.lines) == 15
    assert all(line.identity_holds for line in rep.lines)
    assert rep.lines[0].residues == (59, 0, 49)
    assert rep.lines[10].residues == (45, 0, 15)
    assert rep.lines[14].residues == (28, 45, 53)
    assert rep.set_c_count == 25
    assert len(SET_C) == 15 and 49 in SET_C


def test_prime_report():
    rep = prime_report()
    assert [line.index for line in rep.lines if line.d_prime] == [4, 5, 7, 8, 9, 10, 14]
    assert rep.raw_row15_d_prime
    assert rep.diagonal_prime_count == 8
    # corrected short sides are all composite (4601 = 43*107, 12709 = 71*179, ...)
    assert not any(line.a_prime for line in rep.lines)


def test_rows_sort_to_tablet_order():
    by_angle = sorted(corrected_table(), key=lambda r: angle_fraction(r.triple), reverse=True)
    assert [r.index for r in by_angle] == list(range(1, 16))


def test_p322_q_set():
    assert p322_q_set() == [5, 6, 10, 20, 30, 50, 80, 200, 225, 288, 400, 540, 1125]


def test_tsv_matches_golden():
    assert to_tsv() == (GOLDEN / "tablet.tsv").read_text()


def test_raw_fourth_has_diagonal_leading_one():
    for row in corrected_table():
        assert row.raw_fourth.startswith("01~")
