import io
import math
import os
import sys
import tempfile
import threading
import time
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from maksarum import cli, factor, ntheory, survey
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
    stats,
    write_records_csv,
)
from maksarum.tablet import p322_q_set


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
        mine = sorted(tuple(r.triple) for r in enumerate_solutions([q], m))
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


def test_enumerate_solves_no_solution_twice(monkeypatch, refuse):
    qs, m = range(1, 41), 7
    want = []  # every generator of every Q through the checked library entry
    for q in qs:
        for x in range(2, m * q):
            try:
                want.append(solve_integer(x, q, m))
            except GeneratorError:
                pass
    square = factor.reciprocal_square

    def regular_only(pb):  # an irregular leg takes the cheap test, not an exception
        assert set(sympy.factorint(pb)) <= {2, 3, 5}, pb
        return square(pb)

    refuse(monkeypatch, "maksarum.survey.solve_integer", "maksarum.factor.solve_integer")
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


@pytest.mark.parametrize("qs", [[2.0, 7], {7, 2.0}, [7.0], [3, 4.0], [5, Fraction(6)]])
def test_a_q_that_is_no_int_is_refused_whatever_holds_it(qs):
    for entry in (q_set, enumerate_solutions, count_stats):
        with pytest.raises(TypeError, match="Q must be an int"):
            entry(qs)


def test_q_set_keeps_a_step_one_range():
    qs = range(3, 100001)
    assert q_set(qs) is qs
    assert q_set(range(9, 2, -1)) == range(3, 10)
    assert q_set(range(3, 10, 2)) == [3, 5, 7, 9]
    assert q_set([5, 3, 5]) == [3, 5]


@pytest.mark.parametrize("holder", [list, set])
def test_a_set_with_no_gap_takes_one_path_whatever_holds_it(monkeypatch, refuse, holder):
    qs = range(16, 1516)
    assert q_set(holder(qs)) == qs and q_set([7, 5]) == [5, 7]
    want = count_stats(qs)
    refuse(monkeypatch, "maksarum.survey._set_legs")  # the range is wide enough for the sieve
    assert count_stats(holder(qs)) == want


def test_enumerate_other_bundling_factors():
    recs = enumerate_solutions([6], m=1)
    assert [(r.x, r.y) for r in recs] == [(2, 18)]
    assert recs[0].triple == Triple(8, 6, 10)
    # the factor-3 and factor-60 readings cover the same triples
    t3 = {tuple(r.triple) for r in enumerate_solutions([40], m=3)}
    t12 = {tuple(r.triple) for r in enumerate_solutions([10], m=12)}
    t60 = {tuple(r.triple) for r in enumerate_solutions([2], m=60)}
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
def test_class_counts_match_the_divisor_stream(monkeypatch, refuse, m, lo, hi):
    # count_stats counts primitive classes; odd M loses the x = 1 solution (the
    # split s = 1 of n = M*L) at Q = L; every source of L agrees on the range
    assert _legs_agree(lo, hi)
    want = _stream_stats(range(lo, hi + 1), m)
    refuse(monkeypatch, "maksarum.survey._sides")  # the divisor walk
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
def test_count_stats_across_sieve_segments(monkeypatch, refuse, m):
    qs = range(survey._SEGMENT - 1000, survey._SEGMENT + 150)  # HIGH passes the first segment
    want = _stream_stats(qs, m)
    assert _legs_agree(qs[0], qs[-1])
    refuse(monkeypatch, "maksarum.survey._set_legs")  # the range is wide enough for the sieve
    assert count_stats(qs, m) == want
    monkeypatch.setattr(survey, "_SEGMENT", 7)  # shorter than most primes the sieve divides by
    assert count_stats(qs, m) == want


# m*HIGH <= 24*width*tau(m) for every range drawn below, and never for the second set
BAND_WALK_M = (1, 2, 7, 12, 60, 120, 210)
SPLIT_WALK_M = (97, 250, 1001)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(BAND_WALK_M + SPLIT_WALK_M), st.integers(1, 100), st.integers(120, 500))
def test_both_band_counts_match_the_divisor_stream_at_random(refuse, m, lo, width):
    qs = range(lo, lo + width)
    want = _stream_stats(qs, m)
    with pytest.MonkeyPatch.context() as mp:
        refuse(mp, "maksarum.survey._set_legs")  # every range drawn takes the sieve
        # BAND_WALK_M take the band walk, never the split walk's (pi/6, pi/4) test; the rest the split walk
        refuse(mp, "maksarum.survey._in_pi6_pi4" if m in BAND_WALK_M else "maksarum.survey._band_walk")
        assert count_stats(qs, m) == want


def test_band_walk_counts_the_benchmark_window(monkeypatch, refuse):
    qs = range(16, 1516)
    want = _stream_stats(qs, 12)
    refuse(monkeypatch, "maksarum.survey._in_pi6_pi4")  # the split walk's band test
    assert count_stats(qs, 12) == want


@pytest.mark.parametrize("qs,m", [
    ([1125], 12), (p322_q_set(), 12), (range(1000, 1101), 12), (range(1, 301), 1001),
    (range(1, 41), 720720),
], ids=["Q 1125", "Q-set p322", "narrow window", "M 1001", "M 720720"])
def test_split_walk_counts_sets_windows_and_large_m(monkeypatch, refuse, qs, m):
    want = _stream_stats(qs, m)
    refuse(monkeypatch, "maksarum.survey._band_walk")
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


def test_export_with_neither_output_walks_no_divisor(monkeypatch, refuse):
    refuse(monkeypatch, "maksarum.survey.divisors_from_factors")
    assert export(range(1, 41), 12, BAND_FULL, None, None) is None


def test_both_walks_check_each_right_angle(a_non_divisor):
    # Q = 5: b = 60, and u = 7 gives (121, 60, 135)
    wrong = r"not a right triangle: 121\^2 \+ 60\^2 != 135\^2"
    with pytest.raises(ValueError, match=wrong):
        list(_sides([5], 12))
    with pytest.raises(ValueError, match=wrong):
        export([5], 12, BAND_FULL, io.StringIO(), None)
    with pytest.raises(ValueError, match=wrong):
        export([5], 12, BAND_FULL, None, 1.0)


class _Writes:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


def test_export_writes_blocks_of_at_most_4096_rows():
    q = 12252240  # 9,355 rows from one Q
    sink, want = _Writes(), io.StringIO()
    export([q], 12, BAND_FULL, sink, None)
    write_records_csv(enumerate_solutions([q]), want)
    assert "".join(sink.calls) == want.getvalue()
    assert want.getvalue().count("\n") == 9356
    assert max(text.count("\n") for text in sink.calls) == 4096
    assert len(sink.calls) == 4  # the header and three blocks


@pytest.mark.parametrize("m", [1, 2])
def test_export_with_no_solutions(m):
    buf = io.StringIO()
    hist = export([1], m, BAND_FULL, buf, 1.0)
    assert buf.getvalue().splitlines() == [CSV_HEADER]
    assert len(hist.bins) == 90 and hist.total == 0


# --- the export in two processes -------------------------------------------

# the odd Q up to 1999 with 60 and 420: 1,002 Qs and 42,959 rows at M = 77, b with repeated primes
_M77_SET = sorted({*range(1, 2000, 2), 60, 420})


@pytest.mark.parametrize("qs, m, band", [
    (range(5, 1505), 12, BAND_FULL),
    (range(5, 1505), 12, BAND_P322),
    (_M77_SET, 77, BAND_FULL),
], ids=["benchmark_window", "benchmark_window_p322", "m77_set"])
def test_two_process_export_matches_the_records(forks, qs, m, band):
    _check_export(qs, m, band, 1.0)
    assert len(forks) == 3  # the CSV with the histogram, each alone; with neither no walk


def test_two_process_export_into_a_file(forks, monkeypatch, tmp_path):
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8") as fp:  # the header waits in fp's buffer at the fork
        hist = export(range(5, 1505), 12, BAND_FULL, fp, 1.0)
    assert len(forks) == 1
    monkeypatch.setattr(survey, "_forkable", lambda: False)
    want = io.StringIO()
    assert export(range(5, 1505), 12, BAND_FULL, want, 1.0) == hist
    assert len(forks) == 1
    assert path.read_text(encoding="utf-8") == want.getvalue()


class _Steer:
    """Steers the claims of one survey._two_processes call to an extreme: wrap(job) is the
    run job for it.  At its first run each side says that it holds a run and waits until
    the other side holds one too.  The side named by waits ("parent" or "child") then keeps
    that run until the other side has written every item on its side of it, so the other
    side takes every other run.  calls lists the runs [i, j) that this process wrote."""

    def __init__(self, tmp_path, waits):
        self.parent, self.waits, self.path, self.calls = os.getpid(), waits, tmp_path, []

    def _put(self, name, text=""):  # atomic, so a reader never sees part of text
        (self.path / f"{name}.tmp").write_text(text)
        os.replace(self.path / f"{name}.tmp", self.path / name)

    def _wait(self, name, text=""):
        deadline = time.monotonic() + 60
        while not ((self.path / name).exists() and (self.path / name).read_text() == text):
            assert time.monotonic() < deadline, f"waited for {name} {text!r}"
            time.sleep(0.001)

    def wrap(self, job):
        def steered(i, j, write, acc):
            side, other = ("parent", "child") if os.getpid() == self.parent else ("child", "parent")
            facing = str(j if side == "parent" else i)  # the end that meets the other side's runs
            if not self.calls:
                self._put(side + " holds one")
                self._wait(other + " holds one")
                if side == self.waits:
                    self._wait(other, facing)
            self.calls.append((i, j))
            job(i, j, write, acc)
            self._put(side, facing)

        return steered


def _numbers(i, j, write, acc):
    """A run job: each item's number on a line of its own, and the items counted in acc."""
    write("".join("%d\n" % k for k in range(i, j)))
    acc[0] += j - i


@pytest.mark.parametrize("waits", [None, "child", "parent"])
@pytest.mark.parametrize("n", [5, survey._RUNS, 1000])
def test_the_two_sides_claim_each_run_once(forks, tmp_path, n, waits):
    steer = _Steer(tmp_path, waits)
    out, mine = io.StringIO(), [0]
    theirs = survey._two_processes(n, _numbers if waits is None else steer.wrap(_numbers), out.write, mine, [0])
    assert out.getvalue() == "".join("%d\n" % k for k in range(n))
    assert mine[0] + theirs[0] == n
    runs = min(n, survey._RUNS)
    if waits == "child":  # this process took every run but the last, which the child took first
        assert len(steer.calls) == runs - 1 and steer.calls[0][0] == 0 and theirs[0] < n / runs + 1
    elif waits == "parent":  # this process took run 0 alone
        assert len(steer.calls) == 1 and steer.calls[0][0] == 0 and mine[0] == steer.calls[0][1]
    assert len(forks) == 1


@pytest.mark.parametrize("waits", ["child", "parent"])
def test_a_steered_export_adds_the_child_bins_once(forks, monkeypatch, tmp_path, waits):
    qs, want_csv = range(5, 1505), io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(survey, "_forkable", lambda: False)
        want = export(qs, 12, BAND_FULL, want_csv, 1.0)
    steer, two = _Steer(tmp_path, waits), survey._two_processes
    monkeypatch.setattr(survey, "_two_processes", lambda n, job, *args: two(n, steer.wrap(job), *args))
    got_csv = io.StringIO()
    assert export(qs, 12, BAND_FULL, got_csv, 1.0) == want
    assert got_csv.getvalue() == want_csv.getvalue()
    assert len(steer.calls) == (survey._RUNS - 1 if waits == "child" else 1)
    assert len(forks) == 1


def test_the_export_forks_from_its_row_threshold(forks):
    # the first Qs give _PROBE_ROWS rows; the rest must hold _FORK_MIN_ROWS at their rate
    rows = done = 0
    while rows < survey._PROBE_ROWS:
        done += 1
        rows += sum(1 for _ in _sides([done], 12))
    hi = done + 2
    while rows * (hi - done) < survey._FORK_MIN_ROWS * done:
        hi += 1
    _check_export(range(1, hi), 12, BAND_FULL, 1.0)  # one Q short of the threshold
    assert forks == []
    _check_export(range(1, hi + 1), 12, BAND_FULL, 1.0)
    assert len(forks) == 3


def test_one_q_is_one_process_however_many_rows(forks, monkeypatch):
    monkeypatch.setattr(survey, "_FORK_MIN_ROWS", 1)
    export([12252240], 12, BAND_FULL, io.StringIO(), 1.0)  # 9,355 rows
    assert forks == []


@pytest.mark.parametrize("band", [BAND_FULL, BAND_P322])
@pytest.mark.parametrize("m", [1, 2, 3, 12, 77])
@pytest.mark.parametrize("qs", [[1], [1, 2], range(1, 41), [7, 225, 288, 1125]])
def test_the_row_loop_counts_the_rows_before_the_band_filter(qs, m, band):
    keep = None if band == BAND_FULL else survey._BANDS[band]
    assert survey._rows(qs, m, keep, None, [0] * 90, 1.0) == sum(1 for _ in _sides(qs, m))


def test_one_process_without_fork_a_second_cpu_or_a_quiet_process(forks, monkeypatch):
    assert survey._forkable()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not survey._forkable()
    with monkeypatch.context() as patch:  # no CPU affinity: the CPU count decides
        patch.delattr(os, "sched_getaffinity", raising=False)
        assert survey._forkable()
        patch.setattr(os, "cpu_count", lambda: None)
        assert not survey._forkable()
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert not survey._forkable()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not survey._forkable()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_wrong_right_angle_in_the_child_is_raised_here(forks, monkeypatch, capsys, a_non_divisor):
    qs = range(5, 1505)
    wrong = survey.divisors_from_factors  # a_non_divisor's

    def at_the_last_q(factors, lo=1, hi=None):  # which the child walks; c = 6*Q
        last = math.prod(p**e for p, e in factors.items()) == (6 * qs[-1]) ** 2
        return (wrong if last else ntheory.divisors_from_factors)(factors, lo, hi)

    monkeypatch.setattr(survey, "divisors_from_factors", at_the_last_q)
    with pytest.raises(ValueError) as one_q:
        list(_sides([qs[-1]], 12))
    for fp, width in [(io.StringIO(), None), (None, 1.0)]:
        with pytest.raises(ValueError) as raised:
            export(qs, 12, BAND_FULL, fp, width)
        assert type(raised.value) is ValueError and str(raised.value) == str(one_q.value)
    assert len(forks) == 2
    # a table's one window ends with the non-divisor, in the child's first run: one line, exit 2
    monkeypatch.setattr(survey, "divisors_from_factors", wrong)
    errors = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert cli.main(["generate", "--bounded", "22", "--format", "tsv"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("maksarum: not a right triangle: ")
    assert len(forks) == 3


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_an_os_error_in_the_child_is_raised_here(forks, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: open("/dev/full", "w+b"))
    with pytest.raises(OSError) as raised:
        export(range(5, 1505), 12, BAND_FULL, io.StringIO(), None)
    assert type(raised.value) is OSError and str(raised.value) == "[Errno 28] No space left on device"
    assert cli.main(["generate", "--bounded", "22", "--format", "tsv"]) == 1
    assert capsys.readouterr().err == "maksarum: [Errno 28] No space left on device\n"
    assert len(forks) == 2


class _FailsAfterAFork:
    """A text sink that raises its error at its first write after a fork."""

    def __init__(self, forks, error):
        self.forks, self.before, self.error = forks, len(forks), error

    def write(self, text):
        if len(self.forks) > self.before:
            raise self.error


@pytest.mark.parametrize("error", [KeyboardInterrupt(), OSError(28, "No space left on device")])
def test_the_child_is_killed_and_reaped_when_this_process_fails(forks, monkeypatch, error):
    with pytest.raises(type(error)) as raised:
        export(range(5, 1505), 12, BAND_FULL, _FailsAfterAFork(forks, error), 1.0)
    assert raised.value is error
    monkeypatch.setattr(sys, "stdout", _FailsAfterAFork(forks, error))  # a table's stdout
    args = cli.build_parser().parse_args(["generate", "--bounded", "22", "--format", "tsv"])
    with pytest.raises(type(error)) as raised:
        args.func(args)  # main would print an OSError
    assert raised.value is error
    assert len(forks) == 2


def test_a_child_that_ends_with_no_answer_is_an_error(forks, monkeypatch):
    monkeypatch.setattr(survey, "_child", lambda *args: os._exit(3))
    with pytest.raises(ChildProcessError, match="second process ended with exit code 3"):
        export(range(5, 1505), 12, BAND_FULL, io.StringIO(), 1.0)
