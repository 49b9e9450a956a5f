"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expected values were computed and frozen from an independent
exact-rational enumeration (see tests/golden/); tolerances are exact unless a
criterion states otherwise.  A paper number is asserted in its criterion here;
a unit test asserts the API's behaviour.
"""

import functools
import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from math import atan2, degrees, gcd, isqrt as math_isqrt
from pathlib import Path

from maksarum import circle, partitions, survey, tablet
from maksarum.factor import DegenerateError, Triple, fourth_column, solve_integer
from maksarum.sexagesimal import Sexagesimal, parse, place_value_equal, reciprocal, to_string

GOLDEN = Path(__file__).parent / "golden"

P322_QS = [5, 6, 10, 20, 30, 50, 80, 200, 225, 288, 400, 540, 1125]


def criterion(num, desc):
    """Run the test and print its one ACCEPTANCE line, PASS only if it returned."""

    def wrap(test):
        @functools.wraps(test)
        def run():
            passed = False
            t0 = time.perf_counter()
            try:
                test()
                passed = True
            finally:
                elapsed = time.perf_counter() - t0
                print(f"ACCEPTANCE {num:>3} {'PASS' if passed else 'FAIL'}: {desc} ({elapsed:.2f}s)")

        run.criterion = num
        return run

    return wrap


def test_every_criterion_prints_its_line():
    tests = {name: f for name, f in globals().items() if re.match(r"test_c\d", name)}
    assert [name for name, f in tests.items() if not hasattr(f, "criterion")] == []
    assert len({f.criterion for f in tests.values()}) == len(tests) == 16


# 1 -- tablet reconstruction, exact, < 1 s -----------------------------------

@criterion(1, "15 rows reconstruct exactly in under 1 s")
def test_c01_tablet_reconstruction():
    t0 = time.perf_counter()
    reports = tablet.reconstruct_all()
    elapsed = time.perf_counter() - t0
    assert len(reports) == 15
    for rep in reports:
        assert rep.ok, (rep.index, [c for c in rep.checks if not c.ok])
    rows = tablet.corrected_table()
    assert (rows[0].fourth.coefficient, rows[0].fourth.shift) == (212415, 3)
    assert (rows[9].fourth.coefficient, rows[9].fourth.shift) == (98446084000000, 8)
    assert rows[9].x == 3200
    assert elapsed < 1.0


# 2 -- scribe-error models, exact ----------------------------------------------

@criterion(2, "row 2/9/13 errors and the three row-15 repairs reproduce exactly")
def test_c02_scribe_error_models():
    rows = tablet.corrected_table()
    assert int(parse(rows[1].raw_d).value) == 11521 == 161**2 - 120**2
    assert int(parse(rows[12].raw_a).value) == 25921 == 161**2
    assert int(parse(rows[8].raw_a).value) == 541 and rows[8].triple.a == 481
    assert rows[14].triple == Triple(1680, 2700, 3180)
    assert dict(tablet.row15_repairs()) == {
        "double_d": Triple(56, 90, 106),
        "halve_a": Triple(28, 45, 53),
        "scale_60": rows[14].triple,
    }
    assert [(m.index, m.reproduced) for m in tablet.explain_errors()] == [
        (2, True), (9, True), (13, True), (15, True),
    ]


# 3 -- integer Q-table goldens, exact, < 5 s -----------------------------------

@criterion(3, "13 Q-tables, 614 rows, oracle-exact in under 5 s")
def test_c03_qtable_goldens():
    t0 = time.perf_counter()
    total_rows = 0
    for q in P322_QS:
        golden = (GOLDEN / f"qtable_{q}.tsv").read_text().splitlines()[1:]
        recs = survey.enumerate_solutions([q])
        assert len(recs) == len(golden)
        for rec, line in zip(recs, golden):
            x, y, b, a, d, a2, fourth = line.split("\t")
            t = rec.triple
            assert (rec.x, rec.y, t.b, t.a, t.d, t.a * t.a) == (
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
    rec = next(r for r in q288 if r.x == 1458)
    assert rec.fourth.coefficient == 2657036484375  # not the garbled published column
    assert total_rows == 614
    assert elapsed < 5.0


# 4 -- bounded generator table ---------------------------------------------------

@criterion("4a", "bounded table rows are oracle-exact with correct anchors")
def test_c04a_bounded_table_oracle_rows():
    pairs = partitions.enumerate_bounded(12, 3)
    golden = (GOLDEN / "bounded_3_decimal.tsv").read_text().splitlines()[1:]
    assert len(golden) == len(pairs)
    assert (pairs[0].x, pairs[0].y) == (5, Fraction(144, 5))
    assert partitions.pair_solution(pairs[19])[1] == Triple(175, 288, 337)  # place 20
    assert partitions.pair_solution(pairs[-1])[1] == Triple(161, 12960, 12961)  # final row
    for pair, line in zip(pairs, golden):
        place, b, d, a, ratio = line.split("\t")
        _, t = partitions.pair_solution(pair)
        assert (t.b, t.d, t.a) == (int(b), int(d), int(a)), place
        assert f"{t.a * t.a / (t.b * t.b):.15g}" == ratio, place
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
            assert (to_string(a_side), to_string(d_side)) == fixes[pair.x]


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


@criterion("4b", "stated 51 = complete 59 - 8 omitted pairs, each within every bound")
def test_c04b_bounded_table_row_count_as_stated():
    pairs = partitions.enumerate_bounded(12, 3)
    xs = [p.x for p in pairs]
    kept = [x for x in xs if x not in C04B_OMITTED_X]
    why = (
        "The historically tabulated 51 rows should be the complete 3-digit "
        "enumeration (59 pairs, equal to a brute-force scan) less eight pairs that "
        "satisfy every stated bound (X, Y, A, D all within three fractional "
        "sexagesits, 0 < A < 12). All 59 golden rows are oracle-exact (see "
        "test_c04a), and the 51 tabulated rows are among them. Omitted pairs: "
        + ", ".join(to_string(x) for x in C04B_OMITTED_X)
        + f"; the enumeration gives {len(xs)} pairs, {len(kept)} after removing them"
    )
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
    assert xs == brute, why
    for x in C04B_OMITTED_X:
        y = 144 / x
        a_side, d_side = (y - x) / 2, (y + x) / 2
        assert all((v * scale).denominator == 1 for v in (x, y, a_side, d_side)), why
        assert 0 < a_side < 12, why
    assert all(x in xs for x in C04B_OMITTED_X), why
    assert (len(xs), len(kept)) == (59, 51), why


# 5 -- the pyramid-angle solution -------------------------------------------------

@criterion(5, "4-digit enumeration contains the pyramid solution, Q = 20250, angle 51.8395038075")
def test_c05_giza():
    assert to_string(Fraction(729, 125)) == "05.~49~55~12"
    pairs = partitions.enumerate_bounded(12, 4)
    target = [p for p in pairs if p.x == Fraction(729, 125)]
    assert len(target) == 1
    q, t = partitions.pair_solution(target[0])
    assert q == 20250 and t == Triple(190951, 243000, 309049)
    assert abs(degrees(atan2(t.b, t.a)) - 51.83950380749469) < 1e-9


# 6 -- survey statistics, exact, < 60 s single-threaded ----------------------------

@criterion(6, "counts (50781, 3265, 3017)/(10378, 382, 332) and (614, 52, 51)/(193, 16, 15) exact")
def test_c06_survey_statistics():
    t0 = time.perf_counter()
    s_all = survey.stats(survey.enumerate_solutions(range(1, 1126)))
    elapsed = time.perf_counter() - t0
    s_p322 = survey.stats(survey.enumerate_solutions(P322_QS))
    assert s_all == (50781, 3265, 3017, 10378, 382, 332)
    assert s_p322 == (614, 52, 51, 193, 16, 15)
    assert elapsed < 60.0


# 7 -- selection criterion ----------------------------------------------------------

@criterion(7, "selection keeps the 15 tablet classes (14 verbatim) and "
              "rejects only the class reducing to (175, 288, 337)")
def test_c07_selection_criterion():
    records = survey.enumerate_solutions(P322_QS)
    selected = survey.p322_selection(records)
    corrected = [row.triple for row in tablet.corrected_table()]
    assert len(selected) == 15
    # one selected triple per carved angle class, classes in exact bijection
    sel_classes = {tuple(survey.primitive_reduce(t)) for t in selected}
    cor_classes = {tuple(survey.primitive_reduce(t)) for t in corrected}
    assert sel_classes == cor_classes and len(sel_classes) == 15
    # fourteen rows verbatim; the 3-4-5 class keeps its unique 60x-primitive
    # member (180, 240, 300) where the tablet carved the 15x form (45, 60, 75)
    assert len([t for t in selected if t in corrected]) == 14
    assert [t for t in selected if t not in corrected] == [Triple(180, 240, 300)]
    assert survey.rejected_p322_classes(records) == [Triple(175, 288, 337)]
    assert survey.p322_selection([]) == []


# 8 -- pi truncations ------------------------------------------------------------------

@criterion(8, "digit sequence 03; 08 29 44 00 47 25 53 07; err(3) in [6.0E-8, 6.2E-8], err(8) < 5.954E-15")
def test_c08_pi_truncations():
    seq = [8, 29, 44, 0, 47, 25, 53, 7]
    for k in range(1, 9):
        approx = circle.pi_digits(k)
        expect = seq[:k]
        while expect and expect[-1] == 0:  # trailing zeros are normalized away (k = 4)
            expect.pop()
        assert (approx.digits.int_digits, approx.digits.frac_digits) == ([3], expect), k
        assert Decimal(0) < approx.error < Decimal(1) / Decimal(60**k), k
    assert Decimal("6.0e-8") <= circle.pi_digits(3).error <= Decimal("6.2e-8")
    assert circle.pi_digits(8).error < Decimal("5.954e-15")


# 9 -- congruence and prime reports ---------------------------------------------------

@criterion(9, "25 of 30 residues in the prime set; exactly 8 diagonal primes")
def test_c09_congruence_and_primes():
    cong = tablet.congruence_report()
    assert len(cong.lines) == 15
    assert all(line.identity_holds for line in cong.lines)
    assert [cong.lines[i].residues for i in (0, 10, 14)] == [(59, 0, 49), (45, 0, 15), (28, 45, 53)]
    assert len(tablet.SET_C) == 15 and 49 in tablet.SET_C
    assert cong.set_c_count == 25
    primes = tablet.prime_report()
    assert [line.index for line in primes.lines if line.d_prime] == [4, 5, 7, 8, 9, 10, 14]
    assert primes.raw_row15_d_prime
    assert primes.diagonal_prime_count == 8
    # corrected short sides are all composite (4601 = 43*107, 12709 = 71*179, ...)
    assert not any(line.a_prime for line in primes.lines)


# 10 -- property suites ------------------------------------------------------------------

@criterion("10a", "every solution with Q <= 50 is its own solve_integer, with a^2 + b^2 = d^2")
def test_c10a_identity_all_solutions_q50():
    for r in survey.enumerate_solutions(range(1, 51)):
        t = r.triple
        assert r == solve_integer(r.x, r.q, r.m)
        assert t.a**2 + t.b**2 == t.d**2
        assert r.x * r.y == t.b**2
        assert r.x < r.y and (r.y - r.x) % 2 == 0
        assert t.a == (r.y - r.x) // 2 and t.d == (r.y + r.x) // 2
        assert t.b == 12 * r.q


@criterion("10b", "divisor enumeration equals the square-scan oracle for Q <= 30")
def test_c10b_enumeration_matches_brute_force_q30():
    for q in range(1, 31):
        b = 12 * q
        brute = []
        for a in range(1, (b * b - 4) // 4 + 1):
            d = math_isqrt(a * a + b * b)
            if d * d == a * a + b * b:
                brute.append((a, b, d))
        mine = sorted((r.triple.a, r.triple.b, r.triple.d) for r in survey.enumerate_solutions([q]))
        assert mine == brute, q


@criterion("10c", "parse/format roundtrip on 10^4 random values, both styles")
def test_c10c_roundtrip_10000_random_values():
    rng = random.Random(20127)
    for _ in range(10_000):
        v = Sexagesimal(rng.randrange(60**8), rng.randrange(8))
        assert parse(to_string(v, "paper")) == v
        assert parse(to_string(v, "colon")) == v


@criterion("10d", "x * reciprocal(x) is a power of 60 for every regular x <= 10^6")
def test_c10d_reciprocal_contract_up_to_1e6():
    regulars = sorted(
        2**i * 3**j * 5**k
        for i in range(20)
        for j in range(13)
        for k in range(9)
        if 2**i * 3**j * 5**k <= 10**6
    )
    # n <= 10**6 < 2**20 is regular iff it divides 60**20
    assert len(regulars) == sum(1 for n in range(1, 10**6 + 1) if 60**20 % n == 0)
    for n in regulars:
        r = reciprocal(Sexagesimal(n))
        assert place_value_equal(Fraction(n) * r.value, 1), n


@criterion("10e", "fourth column invariant under scaling by k in [1, 60]")
def test_c10e_fourth_column_scale_invariance():
    for t in (Triple(119, 120, 169), Triple(3, 4, 5), Triple(65, 72, 97), Triple(28, 45, 53)):
        base = fourth_column(t)
        for k in range(1, 61):
            assert fourth_column(t.scaled(k)) == base, (t, k)


# 11 -- varying M finds all Pythagorean triples ---------------------------------------

@criterion(11, "every triple with b <= 120 solves for every M*Q = b (d - a = 1 exactly the "
               "degenerate); every primitive class with L <= 200 appears at M = 12, Q = L")
def test_c11_varying_m_finds_all_triples():
    # oracle 1: every (a, b, d) with b <= 120, from a square scan of the short side a
    brute = []
    for b in range(1, 121):
        for a in range(1, (b * b - 1) // 2 + 1):
            d = math_isqrt(a * a + b * b)
            if d * d == a * a + b * b:
                brute.append((a, b, d))
    # generator x = d - a against every factorization b = M*Q
    degenerate = set()
    for a, b, d in brute:
        for m in (m for m in range(1, b + 1) if b % m == 0):
            try:
                assert solve_integer(d - a, b // m, m).triple == (a, b, d)
            except DegenerateError:
                degenerate.add((a, b, d))
    assert degenerate == {t for t in brute if t[2] - t[0] == 1}
    # oracle 2: Euclid's form gives every primitive class (a0, b0), in both orientations
    classes = set()
    for u in range(2, 1201):  # L <= 200 needs b0 <= 2400, and b0 >= 2u - 1 either way
        for v in range(1 + u % 2, u, 2):
            if gcd(u, v) == 1:
                for a0, b0 in ((u * u - v * v, 2 * u * v), (2 * u * v, u * u - v * v)):
                    if b0 // gcd(b0, 12) <= 200:
                        classes.add((a0, b0))
    assert {(a, b) for a, b, _ in brute if gcd(a, b) == 1} <= classes
    # each class with L = b0 / gcd(b0, 12) <= 200 appears in the M = 12 survey at Q = L
    angles = {}
    for r in survey.enumerate_solutions(range(1, 201)):
        p = survey.primitive_reduce(r.triple)
        angles.setdefault(r.q, set()).add((p.a, p.b))
    assert all((a0, b0) in angles[b0 // gcd(b0, 12)] for a0, b0 in classes)
