import io
from fractions import Fraction
from math import isqrt

import pytest
import sympy

from maksarum.factor import Triple
from maksarum.survey import (
    BAND_FULL,
    BAND_P322,
    BAND_PI6_PI4,
    CSV_HEADER,
    SurveyStats,
    band_filter,
    count_stats,
    enumerate_solutions,
    export,
    histogram,
    p322_selection,
    primitive_reduce,
    rejected_p322_classes,
    stats,
    write_records_csv,
)
from maksarum.tablet import corrected_table, p322_q_set


def brute_force_triples(q, m=12):
    """Independent oracle: scan every short side against b = m*q for a square d^2."""
    b = m * q
    found = []
    for a in range(1, (b * b - 4) // 4 + 1):
        d_sq = a * a + b * b
        d = isqrt(d_sq)
        if d * d == d_sq:
            found.append((a, b, d))
    return found


@pytest.mark.parametrize("q,count,first_x,last_x", [(5, 13, 2, 50), (6, 12, 2, 54), (10, 22, 2, 100)])
def test_enumerate_counts(q, count, first_x, last_x):
    recs = enumerate_solutions([q])
    assert len(recs) == count
    assert recs[0].solution.x == first_x and recs[-1].solution.x == last_x


def test_q6_parity_exclusions():
    xs = [r.solution.x for r in enumerate_solutions([6])]
    assert 27 not in xs and 64 not in xs
    assert xs == [2, 4, 6, 8, 12, 16, 18, 24, 32, 36, 48, 54]


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 10, 12, 18, 25, 30])
def test_enumerate_matches_brute_force(q):
    mine = sorted((r.triple.a, r.triple.b, r.triple.d) for r in enumerate_solutions([q]))
    assert mine == brute_force_triples(q)


def test_all_records_are_valid_solutions():
    for r in enumerate_solutions(range(1, 51)):
        t = r.triple
        s = r.solution
        assert t.a**2 + t.b**2 == t.d**2
        assert s.x * s.y == t.b**2
        assert s.x < s.y and (s.y - s.x) % 2 == 0
        assert t.a == (s.y - s.x) // 2 and t.d == (s.y + s.x) // 2
        assert t.b == 12 * s.q


def test_band_filters():
    recs = enumerate_solutions([10])
    by_x = {r.solution.x: r for r in recs}
    assert by_x[50].in_pi6_pi4 and by_x[50].in_p322  # (119, 120, 169)
    assert not by_x[2].in_pi6_pi4  # (3599, 120, 3601) has a > b
    assert len(band_filter(recs, BAND_PI6_PI4)) >= len(band_filter(recs, BAND_P322))
    with pytest.raises(ValueError, match="unknown band"):
        band_filter(recs, "pi")
    with pytest.raises(ValueError, match="unknown band"):
        export([10], 12, "pi", None, None)


def test_sixteenth_class_band_membership():
    recs = enumerate_solutions([288])
    rec = next(r for r in recs if r.solution.x == 1944)
    assert rec.triple == Triple(2100, 3456, 4044)
    assert rec.in_pi6_pi4 and not rec.in_p322
    assert rec.primitive == Triple(175, 288, 337)


def test_stats_consistency():
    recs = enumerate_solutions([10])
    s = stats(recs)
    assert s.total == 22
    assert s.p322 <= s.pi6_pi4 <= s.total
    assert s.distinct_total <= s.total
    both = stats(enumerate_solutions([5, 6]))
    assert both.total == 13 + 12


def test_primitive_reduce():
    assert primitive_reduce(Triple(2100, 3456, 4044)) == Triple(175, 288, 337)
    assert primitive_reduce(Triple(119, 120, 169)) == Triple(119, 120, 169)
    assert primitive_reduce(Triple(45, 60, 75)) == Triple(3, 4, 5)
    assert primitive_reduce(primitive_reduce(Triple(45, 60, 75))) == Triple(3, 4, 5)


def test_p322_selection():
    recs = enumerate_solutions(p322_q_set())
    sel = p322_selection(recs)
    assert len(sel) == 15
    corrected = [row.triple for row in corrected_table()]
    # class-level bijection with the tablet
    assert {primitive_reduce(t).as_tuple() for t in sel} == {
        primitive_reduce(t).as_tuple() for t in corrected
    }
    # fourteen rows are selected verbatim; the 3-4-5 class keeps its 60x form
    verbatim = [t for t in sel if t in corrected]
    assert len(verbatim) == 14
    assert [t for t in sel if t not in corrected] == [Triple(180, 240, 300)]
    assert p322_selection([]) == []


def test_rejected_class():
    recs = enumerate_solutions(p322_q_set())
    assert rejected_p322_classes(recs) == [Triple(175, 288, 337)]


def test_selection_orders_by_descending_angle():
    recs = enumerate_solutions(p322_q_set())
    sel = p322_selection(recs)
    ratios = [Fraction(t.a, t.b) for t in sel]
    assert ratios == sorted(ratios, reverse=True)


def test_histogram():
    recs = enumerate_solutions(p322_q_set())
    in_band = band_filter(recs, BAND_P322)
    hist = histogram(in_band, 1.0)
    assert hist.total == len(in_band) == 51
    lows = [low for (low, high, c) in hist.bins if c]
    assert min(lows) >= 31.0 and max(lows) < 45.0
    assert len(hist.bins) == 90
    assert hist.bins[0][:2] == (0.0, 1.0)
    for width in (0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            histogram(recs, width)


def test_histogram_csv():
    buf = io.StringIO()
    histogram(enumerate_solutions([5]), 15.0).write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_low_deg,bin_high_deg,count"
    assert len(lines) == 7  # six 15-degree bins over (0, 90)
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 13


def test_records_csv_schema_and_irregular_q():
    buf = io.StringIO()
    write_records_csv(enumerate_solutions([7]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",")[:8] == [
        "Q", "x", "y", "a", "b", "d", "fourth_coefficient", "fourth_shift",
    ]
    x2 = next(line for line in lines[1:] if line.startswith("7,2,"))
    cells = x2.split(",")
    assert cells[6] == "" and cells[7] == ""  # ratio has no finite base-60 form
    x14 = next(line for line in lines[1:] if line.startswith("7,14,"))
    assert x14.split(",")[6] != ""


def test_enumerate_rejects_bad_input():
    for entry in (enumerate_solutions, count_stats):
        with pytest.raises(ValueError):
            entry([])
        with pytest.raises(ValueError):
            entry([0, 5])
        with pytest.raises(ValueError):
            entry([3], m=0)


def test_enumerate_other_bundling_factors():
    recs = enumerate_solutions([6], m=1)
    assert [(r.solution.x, r.solution.y) for r in recs] == [(2, 18)]
    assert recs[0].triple == Triple(8, 6, 10)
    # the factor-3 and factor-60 readings cover the same triples
    t3 = {r.triple.as_tuple() for r in enumerate_solutions([40], m=3)}
    t12 = {r.triple.as_tuple() for r in enumerate_solutions([10], m=12)}
    t60 = {r.triple.as_tuple() for r in enumerate_solutions([2], m=60)}
    assert t3 == t12 == t60


def test_distinct_angle_subadditivity():
    a = enumerate_solutions([5])
    b = enumerate_solutions([6])
    both = enumerate_solutions([5, 6])
    sa, sb, s_both = stats(a), stats(b), stats(both)
    assert s_both.distinct_total <= sa.distinct_total + sb.distinct_total
    assert s_both.total == sa.total + sb.total


@pytest.fixture(scope="module")
def counts_to_5000():
    return count_stats(range(1, 5001))


def test_count_stats_to_5000(counts_to_5000):
    assert counts_to_5000 == SurveyStats(304219, 16996, 15564, 53651, 1683, 1460)


def test_count_stats_total_is_the_divisor_count_sum(counts_to_5000):
    # x = 2x', y = 2y' with x'y' = (6Q)**2 and x' < 6Q: (tau(36 Q**2) - 1) / 2 per Q
    assert counts_to_5000.total == sum(
        (sympy.divisor_count(36 * q * q) - 1) // 2 for q in range(1, 5001)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 60])
@pytest.mark.parametrize("qs", [[1], range(1, 41), range(281, 301), [7, 225, 288, 1125]])
def test_count_stats_matches_the_records(m, qs):
    assert count_stats(qs, m) == stats(enumerate_solutions(qs, m))


@pytest.mark.parametrize("m", [1, 2])
def test_count_stats_with_no_solutions(m):
    assert count_stats([1], m) == SurveyStats(0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("band", [BAND_FULL, BAND_PI6_PI4, BAND_P322])
@pytest.mark.parametrize("m", [1, 3, 7, 12, 60])
@pytest.mark.parametrize("qs", [[1], range(1, 41), range(281, 301), [7, 225, 288, 1125]])
def test_export_matches_the_records(qs, m, band):
    kept = band_filter(enumerate_solutions(qs, m), band)
    want_csv, want_hist = io.StringIO(), io.StringIO()
    write_records_csv(kept, want_csv)
    histogram(kept, 2.5).write_csv(want_hist)
    got_csv, got_hist = io.StringIO(), io.StringIO()
    export(qs, m, band, got_csv, 2.5).write_csv(got_hist)
    assert got_csv.getvalue() == want_csv.getvalue()
    assert got_hist.getvalue() == want_hist.getvalue()
    assert export(qs, m, band, None, None) is None


@pytest.mark.parametrize("m", [1, 2])
def test_export_with_no_solutions(m):
    buf = io.StringIO()
    hist = export([1], m, BAND_FULL, buf, 1.0)
    assert buf.getvalue().splitlines() == [CSV_HEADER]
    assert len(hist.bins) == 90 and hist.total == 0
