import io
import math
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from maksarum import factor, survey
from maksarum.factor import GeneratorError, Triple, solve_integer
from maksarum.survey import (
    BAND_FULL,
    BAND_P322,
    BAND_PI6_PI4,
    CSV_HEADER,
    SurveyStats,
    _sides,
    _tally,
    band_filter,
    bin_count,
    count_stats,
    enumerate_solutions,
    export,
    histogram,
    p322_selection,
    primitive_reduce,
    q_set,
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
    assert recs[0].x == first_x and recs[-1].x == last_x


def test_q6_parity_exclusions():
    xs = [r.x for r in enumerate_solutions([6])]
    assert 27 not in xs and 64 not in xs
    assert xs == [2, 4, 6, 8, 12, 16, 18, 24, 32, 36, 48, 54]


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 10, 12, 18, 25, 30])
def test_enumerate_matches_brute_force(q):
    # the scan costs (m*q)**2 / 4 steps: about 0.2 s at m*q = 60*30
    for m in (1, 5, 12, 60):
        mine = sorted(r.triple.as_tuple() for r in enumerate_solutions([q], m))
        assert mine == brute_force_triples(q, m), f"M = {m}"


def test_all_records_are_valid_solutions():
    for r in enumerate_solutions(range(1, 51)):
        t = r.triple
        assert r == solve_integer(r.x, r.q, r.m)
        assert t.a**2 + t.b**2 == t.d**2
        assert r.x * r.y == t.b**2
        assert r.x < r.y and (r.y - r.x) % 2 == 0
        assert t.a == (r.y - r.x) // 2 and t.d == (r.y + r.x) // 2
        assert t.b == 12 * r.q


@pytest.mark.parametrize("m", [1, 7, 12, 77])
def test_enumerated_fourth_column_is_exact(m):
    qs = [*range(1, 61), 77, 121, 1125]  # Q = 7, 11, 13, ... and 77, 121 are irregular
    sols = enumerate_solutions(qs, m)
    assert any(s.fourth is None for s in sols) and any(s.fourth for s in sols)
    for s in sols:
        f = s.fourth
        _check_fourth(s.triple.a, s.triple.b, *(("", "") if f is None else f))


def test_enumerate_solves_no_solution_twice(monkeypatch):
    qs, m = range(1, 41), 7
    want = []  # every generator of every Q through the checked library entry
    for q in qs:
        for x in range(2, m * q):
            try:
                want.append(solve_integer(x, q, m))
            except GeneratorError:
                pass
    square = factor.reciprocal_square

    def refuse(*args):
        raise AssertionError("solved a solution again")

    def regular_only(pb):  # an irregular leg takes the cheap test, not an exception
        assert set(sympy.factorint(pb)) <= {2, 3, 5}, pb
        return square(pb)

    monkeypatch.setattr("maksarum.survey.solve_integer", refuse)
    monkeypatch.setattr("maksarum.factor.solve_integer", refuse)
    monkeypatch.setattr("maksarum.factor.reciprocal_square", regular_only)
    assert enumerate_solutions(qs, m) == want


def test_band_filters():
    recs = enumerate_solutions([10])
    by_x = {r.x: r for r in recs}
    pi6_pi4, p322 = band_filter(recs, BAND_PI6_PI4), band_filter(recs, BAND_P322)
    assert by_x[50] in pi6_pi4 and by_x[50] in p322  # (119, 120, 169)
    assert by_x[2] not in pi6_pi4  # (3599, 120, 3601) has a > b
    assert len(band_filter(recs, BAND_PI6_PI4)) >= len(band_filter(recs, BAND_P322))
    with pytest.raises(ValueError, match="unknown band"):
        band_filter(recs, "pi")
    with pytest.raises(ValueError, match="unknown band"):
        export([10], 12, "pi", None, None)


def test_sixteenth_class_band_membership():
    recs = enumerate_solutions([288])
    rec = next(r for r in recs if r.x == 1944)
    assert rec.triple == Triple(2100, 3456, 4044)
    assert rec in band_filter(recs, BAND_PI6_PI4) and rec not in band_filter(recs, BAND_P322)
    assert primitive_reduce(rec.triple) == Triple(175, 288, 337)


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
        with pytest.raises(ValueError):
            entry(range(5, 5))
        with pytest.raises(ValueError):
            entry(range(0, 3))


def test_q_set_keeps_a_step_one_range():
    qs = range(3, 100001)
    assert q_set(qs) is qs
    assert q_set(range(9, 2, -1)) == list(range(3, 10))
    assert q_set(range(3, 10, 2)) == [3, 5, 7, 9]
    assert q_set([5, 3, 5]) == [3, 5]


def test_enumerate_other_bundling_factors():
    recs = enumerate_solutions([6], m=1)
    assert [(r.x, r.y) for r in recs] == [(2, 18)]
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


@pytest.mark.parametrize("q", [1, 7, 1125, 60**3])
@pytest.mark.parametrize("m", [1, 7, 12])
def test_windowed_sides_match_sympy(q, m):
    b = m * q
    divisors = sympy.divisors(b * b)
    pi4 = isqrt(2 * b * b) - b + 1
    windows = {
        "default": (2, b),
        "theta below pi/4": (pi4, b),
        "empty": (b, b),
        "odd ends": (pi4 | 1, b - 1 + b % 2),
    }
    below = [x for x in divisors if x < b]
    if below:
        windows["one divisor"] = (below[-1], below[-1] + 1)
        mid = below[len(below) // 2]
        windows["odd ends around a divisor"] = (mid - 1 + mid % 2, mid + 1 + mid % 2)
        windows["odd ends just past a divisor"] = (mid + 1 + mid % 2, b - 1 + b % 2)
    for name, (lo, hi) in windows.items():
        want = [
            (q, x, b * b // x, (b * b // x - x) // 2, b, (b * b // x + x) // 2)
            for x in divisors
            if lo <= x < hi and (b * b // x - x) % 2 == 0
        ]
        got = list(_sides([q], m, lo, hi))
        assert got == want, name
        for _, x, y, *_ in got:  # the walk builds only these: no branch filters parity
            assert x * y == b * b and x % 2 == y % 2, name
    assert list(_sides([q], m)) == list(_sides([q], m, 2, b))


def _stream_stats(qs, m):
    """The oracle: the legs of every solution from the divisor walk, tallied."""
    return _tally((a, b) for _, _, _, a, b, _ in _sides(q_set(qs, m), m))


def _refuse_divisor_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked the divisors")

    monkeypatch.setattr(survey, "_sides", refuse)


def _sorted_legs(legs):
    """(L, mult, L in the set, L's odd prime powers) in L order, the powers ascending."""
    return sorted((leg, mult, member, sorted(pps)) for leg, mult, member, pps in legs)


def _legs_agree(lo, hi):
    """The sieve, the range's divisors and the same Q as a list give the same L."""
    sieved = _sorted_legs(survey._range_legs(lo, hi))
    qs = range(lo, hi + 1)
    return sieved == _sorted_legs(survey._set_legs(qs)) == _sorted_legs(survey._set_legs(list(qs)))


@pytest.mark.parametrize("m,lo,hi", [
    (m, lo, hi)
    for m in (1, 2, 3, 5, 7, 12, 60)
    for lo, hi in ((1, 1), (1, 2), (2, 40), (7, 7), (281, 300), (1, 100), (16, 215))
] + [(m, 16, 1515) for m in (1, 3, 12, 60)] + [
    (16, 1, 100), (16, 2, 100), (1, 85, 100), (1, 95, 100), (1000003, 1, 2),
])
def test_class_counts_match_the_divisor_stream(monkeypatch, m, lo, hi):
    # count_stats counts primitive classes; odd M loses the x = 1 solution (the
    # split s = 1 of n = M*L) at Q = L; every source of L agrees on the range
    assert _legs_agree(lo, hi)
    want = _stream_stats(range(lo, hi + 1), m)
    _refuse_divisor_walk(monkeypatch)
    assert count_stats(range(lo, hi + 1), m) == want
    assert count_stats(list(range(lo, hi + 1)), m) == want


BUNDLING_FACTORS = (1, 2, 3, 4, 5, 7, 9, 12, 15, 30, 60, 77, 1001, 720720)
q_ranges = st.builds(lambda lo, width: range(lo, lo + width), st.integers(1, 300), st.integers(1, 40))
q_lists = st.lists(st.integers(1, 2000), min_size=1, max_size=6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(BUNDLING_FACTORS), st.one_of(q_ranges, q_lists))
def test_count_stats_matches_the_divisor_stream_at_random(m, qs):
    assert count_stats(qs, m) == _stream_stats(qs, m)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 20000), st.integers(1, 200))
def test_sieve_and_divisors_give_the_same_legs_at_random(lo, width):
    # a range takes the sieve or each Q's divisors by its width next to HIGH
    assert _legs_agree(lo, lo + width - 1)


@pytest.mark.parametrize("m", [1, 7, 12])
def test_count_stats_across_sieve_segments(monkeypatch, m):
    qs = range(survey._SEGMENT - 1000, survey._SEGMENT + 150)  # HIGH passes the first segment
    want = _stream_stats(qs, m)
    assert _legs_agree(qs[0], qs[-1])

    def refuse(qs):
        raise AssertionError("took the divisors of each Q")

    monkeypatch.setattr(survey, "_set_legs", refuse)  # the range is wide enough for the sieve
    assert count_stats(qs, m) == want
    monkeypatch.setattr(survey, "_SEGMENT", 7)  # shorter than most primes the sieve divides by
    assert count_stats(qs, m) == want


@pytest.mark.parametrize("m", [1, 2])
def test_count_stats_with_no_solutions(m):
    assert count_stats([1], m) == SurveyStats(0, 0, 0, 0, 0, 0)


def test_bin_count_at_the_bin_limit():
    # 90 / 9e-05 is 999999.99..., inside 10**6 bins; 90 over the next float down is just over
    assert bin_count(9e-05) == 10**6
    with pytest.raises(ValueError, match="too many bins"):
        bin_count(math.nextafter(9e-05, 0))


def _check_fourth(a, b, coeff, shift):
    """The fourth-column cells of the legs (a, b), checked exactly and without the package's
    rule: coeff * b**2 == a**2 * 60**shift at the least shift, blank iff a**2/b**2 in lowest
    terms has a denominator with a prime above 5."""
    den = b * b // math.gcd(a * a, b * b)
    if coeff == "":
        assert shift == "" and not set(sympy.factorint(den)) <= {2, 3, 5}, (a, b)
    else:
        c, s = int(coeff), int(shift)
        assert c * b * b == a * a * 60**s, (a, b)
        assert s == 0 or (a * a * 60 ** (s - 1)) % (b * b), f"shift of {(a, b)} not minimal"


def _check_export(qs, m, band, width):
    """export with the CSV, the histogram, both or neither on, against the record path."""
    kept = band_filter(enumerate_solutions(qs, m), band)
    want_csv, want_hist = io.StringIO(), io.StringIO()
    write_records_csv(kept, want_csv)
    for line in want_csv.getvalue().splitlines()[1:]:  # the record path shares export's rule
        cells = line.split(",")
        _check_fourth(int(cells[3]), int(cells[4]), cells[6], cells[7])
    histogram(kept, width).write_csv(want_hist)
    got_csv, got_hist = io.StringIO(), io.StringIO()
    export(qs, m, band, got_csv, width).write_csv(got_hist)
    assert got_csv.getvalue() == want_csv.getvalue()
    assert got_hist.getvalue() == want_hist.getvalue()
    csv_only, hist_only = io.StringIO(), io.StringIO()
    assert export(qs, m, band, csv_only, None) is None
    assert csv_only.getvalue() == want_csv.getvalue()
    export(qs, m, band, None, width).write_csv(hist_only)
    assert hist_only.getvalue() == want_hist.getvalue()
    assert export(qs, m, band, None, None) is None


@pytest.mark.parametrize("band", [BAND_FULL, BAND_PI6_PI4, BAND_P322])
@pytest.mark.parametrize("m", [1, 3, 7, 12, 60])
@pytest.mark.parametrize("qs", [[1], range(1, 41), range(281, 301), [7, 225, 288, 1125]])
def test_export_matches_the_records(qs, m, band):
    _check_export(qs, m, band, 2.5)


@pytest.mark.parametrize("width", [0.37, 7, 100])  # 100 is one bin, so every angle is clamped into it
@pytest.mark.parametrize("band", [BAND_FULL, BAND_P322])
def test_export_matches_the_records_at_other_widths(band, width):
    _check_export(range(1, 41), 12, band, width)


@pytest.mark.parametrize("band", [BAND_FULL, BAND_PI6_PI4, BAND_P322])
def test_export_irregular_legs_with_repeated_primes(band):
    # b = 77*Q has the primes 7 and 11 to powers up to 3, so the fourth column
    # turns on whether the leg a carries all of them, not just each prime once;
    # Q = 60 and 420 add the 5-smooth part that some rows reduce to
    _check_export([7, 11, 49, 60, 121, 420, 539], 77, band, 1.0)


def test_export_matches_the_records_on_a_benchmark_window():
    _check_export(range(5, 1505), 12, BAND_FULL, 1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_export_with_no_solutions(m):
    buf = io.StringIO()
    hist = export([1], m, BAND_FULL, buf, 1.0)
    assert buf.getvalue().splitlines() == [CSV_HEADER]
    assert len(hist.bins) == 90 and hist.total == 0
