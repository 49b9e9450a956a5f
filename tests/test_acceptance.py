"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expected values were computed and frozen from an independent
exact-rational enumeration (see tests/golden/); tolerances are exact unless a
criterion states otherwise.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction
from math import atan2, degrees, gcd, isqrt as math_isqrt
from pathlib import Path

import pytest

from maksarum import circle, partitions, survey, tablet
from maksarum.factor import DegenerateError, Triple, fourth_column, solve_integer
from maksarum.sexagesimal import Sexagesimal, is_regular, parse, place_value_equal, reciprocal, to_string

GOLDEN = Path(__file__).parent / "golden"

P322_QS = [5, 6, 10, 20, 30, 50, 80, 200, 225, 288, 400, 540, 1125]


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


# 1 -- tablet reconstruction, exact, < 1 s -----------------------------------

def test_c01_tablet_reconstruction():
    t0 = time.perf_counter()
    reports = tablet.reconstruct_all()
    elapsed = time.perf_counter() - t0
    rows = tablet.corrected_table()
    ok = all(r.ok for r in reports)
    f1 = rows[0].fourth
    f10 = rows[9].fourth
    ok &= (f1.coefficient, f1.shift) == (212415, 3)
    ok &= (f10.coefficient, f10.shift) == (98446084000000, 8)
    ok &= elapsed < 1.0
    assert _line(1, ok, f"15 rows reconstruct exactly ({elapsed:.3f}s)")
    assert all(r.ok for r in reports)
    assert elapsed < 1.0


# 2 -- scribe-error models, exact ----------------------------------------------

def test_c02_scribe_error_models():
    rows = tablet.corrected_table()
    ok = int(parse(rows[1].raw_d).value) == 11521 == 161**2 - 120**2
    ok &= int(parse(rows[12].raw_a).value) == 25921 == 161**2
    ok &= int(parse(rows[8].raw_a).value) == 541 and rows[8].triple.a == 481
    repairs = dict(tablet.row15_repairs())
    ok &= repairs["double_d"] == Triple(56, 90, 106)
    ok &= repairs["halve_a"] == Triple(28, 45, 53)
    ok &= repairs["scale_60"] == Triple(1680, 2700, 3180)
    ok &= all(m.reproduced for m in tablet.explain_errors())
    assert _line(2, ok, "row 2/9/13 errors and the three row-15 repairs reproduce exactly")
    assert ok


# 3 -- integer Q-table goldens, exact, < 5 s -----------------------------------

def test_c03_qtable_goldens():
    t0 = time.perf_counter()
    total_rows = 0
    for q in P322_QS:
        golden = (GOLDEN / f"qtable_{q}.tsv").read_text().splitlines()[1:]
        recs = survey.enumerate_solutions([q])
        assert len(recs) == len(golden)
        for rec, line in zip(recs, golden):
            x, y, b, a, d, a2, fourth = line.split("\t")
            s = rec.solution
            t = rec.triple
            assert (s.x, s.y, t.b, t.a, t.d, t.a * t.a) == (
                int(x), int(y), int(b), int(a), int(d), int(a2),
            )
            coeff, _, shift = fourth.partition("S-")
            # table-convention shift: b fits 60**m, coefficient is a perfect square
            assert Fraction(int(coeff), 60 ** int(shift)) == Fraction(t.a * t.a, t.b * t.b)
            assert math_isqrt(int(coeff)) ** 2 == int(coeff)
        total_rows += len(recs)
    elapsed = time.perf_counter() - t0
    # known published defects are resolved in the oracle's favor:
    row14 = tablet.corrected_table()[13].fourth
    assert row14.coefficient == 20073222400  # the 25~48~51~... reading, not 25~48~59~...
    q288 = survey.enumerate_solutions([288])
    rec = next(r for r in q288 if r.solution.x == 1458)
    assert rec.solution.fourth.coefficient == 2657036484375  # not the garbled published column
    ok = total_rows == 614 and elapsed < 5.0
    assert _line(3, ok, f"13 Q-tables, {total_rows} rows, oracle-exact ({elapsed:.2f}s)")
    assert total_rows == 614
    assert elapsed < 5.0


# 4 -- bounded generator table ---------------------------------------------------

def test_c04a_bounded_table_oracle_rows():
    pairs = partitions.enumerate_bounded(12, 3)
    golden = (GOLDEN / "bounded_3_decimal.tsv").read_text().splitlines()[1:]
    assert len(golden) == len(pairs)
    ok = (pairs[0].x, pairs[0].y) == (5, Fraction(144, 5))
    q20, t20 = partitions.pair_solution(pairs[19])
    ok &= t20 == Triple(175, 288, 337)  # place 20
    qlast, tlast = partitions.pair_solution(pairs[-1])
    ok &= tlast == Triple(161, 12960, 12961)  # final row
    for pair, line in zip(pairs, golden):
        place, b, d, a, ratio = line.split("\t")
        _, t = partitions.pair_solution(pair)
        ok &= (t.b, t.d, t.a) == (int(b), int(d), int(a))
        ok &= f"{t.a * t.a / (t.b * t.b):.15g}" == ratio
    # published sexagesimal-table misprints are not reproduced: the derived
    # sides for these generators are the arithmetic values
    fixes = {
        Fraction(81, 16): ("11.~41~27~30", "16.~45~12~30"),
        Fraction(45, 8): ("09.~59~15", "15.~36~45"),
        Fraction(162, 25): ("07.~52~16", "14.~21~04"),
    }
    for pair in pairs:
        if pair.x in fixes:
            a_side = (pair.y - pair.x) / 2
            d_side = (pair.y + pair.x) / 2
            exp_a, exp_d = fixes[pair.x]
            ok &= to_string(a_side) == exp_a and to_string(d_side) == exp_d
    assert _line("4a", ok, "bounded table rows are oracle-exact with correct anchors")
    assert ok


# The historical three-digit table states 51 rows; the complete enumeration
# has 59.  These eight generators meet every stated bound and are the ones
# the table leaves out.
C04B_OMITTED_X = [
    parse(s).value
    for s in (
        "06.~54~43~12", "07.~01~52~30", "07.~24~26~40", "07.~40~48",
        "07.~48~45", "08.~20", "08.~38~24", "09.~12~57~36",
    )
]


def test_c04b_bounded_table_row_count_as_stated():
    pairs = partitions.enumerate_bounded(12, 3)
    xs = [p.x for p in pairs]
    # oracle: scan every scaled X below 12 for X * Y = 144 with Y > X, A and D
    # integral at three digits (Y - X even) and A < 12
    scale = 60**3
    total = 144 * scale * scale
    brute = []
    for xi in range(1, 12 * scale):
        if total % xi == 0:
            yi = total // xi
            if yi > xi and (yi - xi) % 2 == 0 and yi - xi < 24 * scale:
                brute.append(Fraction(xi, scale))
    ok = xs == brute
    for x in C04B_OMITTED_X:
        y = 144 / x
        a_side, d_side = (y - x) / 2, (y + x) / 2
        ok &= all((v * scale).denominator == 1 for v in (x, y, a_side, d_side))
        ok &= 0 < a_side < 12
    ok &= all(x in xs for x in C04B_OMITTED_X)
    kept = [x for x in xs if x not in C04B_OMITTED_X]
    ok &= len(kept) == 51
    _line("4b", ok, f"stated 51 = complete {len(xs)} - {len(C04B_OMITTED_X)} omitted pairs, "
                    "each within every bound")
    assert ok, (
        "The historically tabulated 51 rows should be the complete 3-digit "
        "enumeration (59 pairs, equal to a brute-force scan) less eight pairs that "
        "satisfy every stated bound (X, Y, A, D all within three fractional "
        "sexagesits, 0 < A < 12). All 59 golden rows are oracle-exact (see "
        "test_c04a), and the 51 tabulated rows are among them. Omitted pairs: "
        + ", ".join(to_string(x) for x in C04B_OMITTED_X)
        + f"; the enumeration gives {len(xs)} pairs, {len(kept)} after removing them"
    )


# 5 -- the pyramid-angle solution -------------------------------------------------

def test_c05_giza():
    pairs = partitions.enumerate_bounded(12, 4)
    target = [p for p in pairs if p.x == Fraction(729, 125)]
    ok = len(target) == 1
    assert to_string(Fraction(729, 125)) == "05.~49~55~12"
    q, t = partitions.pair_solution(target[0])
    ok &= q == 20250 and t == Triple(190951, 243000, 309049)
    angle = degrees(atan2(t.b, t.a))
    ok &= abs(angle - 51.83950380749469) < 1e-9
    assert _line(5, ok, f"4-digit enumeration contains the pyramid solution, angle {angle:.11f}")
    assert ok


# 6 -- survey statistics, exact, < 60 s single-threaded ----------------------------

def test_c06_survey_statistics():
    t0 = time.perf_counter()
    s_all = survey.stats(survey.enumerate_solutions(range(1, 1126)))
    elapsed = time.perf_counter() - t0
    s_p322 = survey.stats(survey.enumerate_solutions(P322_QS))
    ok = (s_all.total, s_all.pi6_pi4, s_all.p322) == (50781, 3265, 3017)
    ok &= (s_all.distinct_total, s_all.distinct_pi6_pi4, s_all.distinct_p322) == (10378, 382, 332)
    ok &= (s_p322.total, s_p322.pi6_pi4, s_p322.p322) == (614, 52, 51)
    ok &= (s_p322.distinct_total, s_p322.distinct_pi6_pi4, s_p322.distinct_p322) == (193, 16, 15)
    ok &= elapsed < 60.0
    assert _line(6, ok, f"counts (50781, 3265, 3017)/(10378, 382, 332) and "
                        f"(614, 52, 51)/(193, 16, 15) exact ({elapsed:.2f}s)")
    assert ok


# 7 -- selection criterion ----------------------------------------------------------

def test_c07_selection_criterion():
    records = survey.enumerate_solutions(P322_QS)
    selected = survey.p322_selection(records)
    corrected = [row.triple for row in tablet.corrected_table()]
    ok = len(selected) == 15
    # one selected triple per carved angle class, classes in exact bijection
    sel_classes = {survey.primitive_reduce(t).as_tuple() for t in selected}
    cor_classes = {survey.primitive_reduce(t).as_tuple() for t in corrected}
    ok &= sel_classes == cor_classes and len(sel_classes) == 15
    # fourteen rows verbatim; the 3-4-5 class keeps its unique 60x-primitive
    # member (180, 240, 300) where the tablet carved the 15x form (45, 60, 75)
    verbatim = [t for t in selected if t in corrected]
    ok &= len(verbatim) == 14
    ok &= [t.as_tuple() for t in selected if t not in corrected] == [(180, 240, 300)]
    rejected = survey.rejected_p322_classes(records)
    ok &= [t.as_tuple() for t in rejected] == [(175, 288, 337)]
    assert _line(7, ok, "selection keeps the 15 tablet classes (14 verbatim) and "
                        "rejects only the class reducing to (175, 288, 337)")
    assert ok


# 8 -- pi truncations ------------------------------------------------------------------

def test_c08_pi_truncations():
    seq = [8, 29, 44, 0, 47, 25, 53, 7]
    ok = True
    for k in range(1, 9):
        approx = circle.pi_digits(k)
        digits = approx.digits.frac_digits
        expect = seq[:k]
        while expect and expect[-1] == 0:
            expect.pop()
        ok &= digits == expect
        ok &= Decimal(0) < approx.error < Decimal(1) / Decimal(60**k)
    e3 = circle.pi_digits(3).error
    ok &= Decimal("6.0e-8") <= e3 <= Decimal("6.2e-8")
    e8 = circle.pi_digits(8).error
    ok &= e8 < Decimal("5.954e-15")
    assert _line(8, ok, f"digit sequence 08 29 44 00 47 25 53 07; err(3)={e3:.2E}, err(8)={e8:.2E}")
    assert ok


# 9 -- congruence and prime reports ---------------------------------------------------

def test_c09_congruence_and_primes():
    cong = tablet.congruence_report()
    primes = tablet.prime_report()
    ok = cong.set_c_count == 25
    ok &= all(line.identity_holds for line in cong.lines)
    ok &= primes.diagonal_prime_count == 8
    ok &= [l.index for l in primes.lines if l.d_prime] == [4, 5, 7, 8, 9, 10, 14]
    assert _line(9, ok, "25 of 30 residues in the prime set; exactly 8 diagonal primes")
    assert ok


# 10 -- property suites ------------------------------------------------------------------

def test_c10a_identity_all_solutions_q50():
    records = survey.enumerate_solutions(range(1, 51))
    ok = all(r.triple.a**2 + r.triple.b**2 == r.triple.d**2 for r in records)
    assert _line("10a", ok, f"a^2 + b^2 = d^2 on all {len(records)} solutions with Q <= 50")
    assert ok


def test_c10b_enumeration_matches_brute_force_q30():
    ok = True
    for q in range(1, 31):
        b = 12 * q
        brute = []
        for a in range(1, (b * b - 4) // 4 + 1):
            d = math_isqrt(a * a + b * b)
            if d * d == a * a + b * b:
                brute.append((a, b, d))
        mine = sorted((r.triple.a, r.triple.b, r.triple.d) for r in survey.enumerate_solutions([q]))
        ok &= mine == brute
    assert _line("10b", ok, "divisor enumeration equals the square-scan oracle for Q <= 30")
    assert ok


def test_c10c_roundtrip_10000_random_values():
    rng = random.Random(20127)
    ok = True
    for _ in range(10_000):
        v = Sexagesimal(rng.randrange(60**8), rng.randrange(8))
        ok &= parse(to_string(v, "paper")) == v
        ok &= parse(to_string(v, "colon")) == v
    assert _line("10c", ok, "parse/format roundtrip on 10^4 random values, both styles")
    assert ok


def test_c10d_reciprocal_contract_up_to_1e6():
    regulars = sorted(
        2**i * 3**j * 5**k
        for i in range(20)
        for j in range(13)
        for k in range(9)
        if 2**i * 3**j * 5**k <= 10**6
    )
    ok = len(regulars) == sum(1 for n in range(1, 10**6 + 1) if is_regular(n))
    for n in regulars:
        r = reciprocal(Sexagesimal(n))
        ok &= place_value_equal(Fraction(n) * r.value, 1)
    assert _line("10d", ok, f"x * reciprocal(x) is a power of 60 for all {len(regulars)} "
                            "regular x <= 10^6")
    assert ok


def test_c10e_fourth_column_scale_invariance():
    bases = [Triple(119, 120, 169), Triple(3, 4, 5), Triple(65, 72, 97), Triple(28, 45, 53)]
    ok = True
    for t in bases:
        base = fourth_column(t)
        for k in range(1, 61):
            ok &= fourth_column(t.scaled(k)) == base
    assert _line("10e", ok, "fourth column invariant under scaling by k in [1, 60]")
    assert ok


# 11 -- varying M finds all Pythagorean triples ---------------------------------------

def test_c11_varying_m_finds_all_triples():
    t0 = time.perf_counter()
    # oracle 1: every (a, b, d) with b <= 120, from a square scan of the short side a
    brute = []
    for b in range(1, 121):
        for a in range(1, (b * b - 1) // 2 + 1):
            d = math_isqrt(a * a + b * b)
            if d * d == a * a + b * b:
                brute.append((a, b, d))
    # generator x = d - a against every factorization b = M*Q
    ok = True
    degenerate = set()
    for a, b, d in brute:
        for m in (m for m in range(1, b + 1) if b % m == 0):
            try:
                ok &= solve_integer(d - a, b // m, m).triple.as_tuple() == (a, b, d)
            except DegenerateError:
                degenerate.add((a, b, d))
    ok &= degenerate == {t for t in brute if t[2] - t[0] == 1}
    # oracle 2: Euclid's form gives every primitive class (a0, b0), in both orientations
    classes = set()
    for u in range(2, 1201):  # L <= 200 needs b0 <= 2400, and b0 >= 2u - 1 either way
        for v in range(1 + u % 2, u, 2):
            if gcd(u, v) == 1:
                for a0, b0 in ((u * u - v * v, 2 * u * v), (2 * u * v, u * u - v * v)):
                    if b0 // gcd(b0, 12) <= 200:
                        classes.add((a0, b0))
    ok &= {(a, b) for a, b, _ in brute if gcd(a, b) == 1} <= classes
    # each class with L = b0 / gcd(b0, 12) <= 200 appears in the M = 12 survey at Q = L
    angles = {}
    for r in survey.enumerate_solutions(range(1, 201)):
        angles.setdefault(r.solution.q, set()).add(r.angle)
    ok &= all((a0, b0) in angles[b0 // gcd(b0, 12)] for a0, b0 in classes)
    elapsed = time.perf_counter() - t0
    assert _line(11, ok, f"all {len(brute)} triples with b <= 120 solve for every M*Q = b "
                         f"(d - a = 1 exactly the {len(degenerate)} degenerate); "
                         f"all {len(classes)} primitive classes with L <= 200 appear at "
                         f"M = 12, Q = L ({elapsed:.2f}s)")
    assert ok
