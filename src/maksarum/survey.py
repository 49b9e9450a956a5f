"""Mass enumeration of integer solutions, band filters, statistics, histograms.

For each scale generator Q the solutions are the divisors x of b**2, b = M*Q,
with 2 <= x < b and x matching y = b**2/x in parity.  Only those are built:
every divisor for odd b, and twice each divisor of (b/2)**2 for even b.  Angle
comparisons are exact (reduced ratios, cross-multiplication); floating point
enters only in histogram binning and display columns.
"""

from __future__ import annotations

import math
from itertools import product
from math import atan2, degrees, gcd, isqrt, prod
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .factor import GeneratorSolution, Triple, angle_fraction, prime_to_60, reciprocal_square, solution
# not called here; kept importable because perfbench/child.py wraps it by name
from .factor import solve_integer  # noqa: F401
from .ntheory import divisors_from_factors, factorize, is_prime

BAND_FULL = "full"
BAND_PI6_PI4 = "pi6_pi4"
BAND_P322 = "p322"

# closed angle band between the tablet's extreme rows: arctan(28/45) .. arctan(119/120)
_P322_LOW = (28, 45)
_P322_HIGH = (119, 120)


class SurveyStats(NamedTuple):
    total: int
    pi6_pi4: int
    p322: int
    distinct_total: int
    distinct_pi6_pi4: int
    distinct_p322: int


def primitive_reduce(t: Triple) -> Triple:
    """Divide out gcd(a, b, d); idempotent."""
    g = gcd(gcd(t.a, t.b), t.d)
    return Triple(t.a // g, t.b // g, t.d // g)


def _in_pi6_pi4(a: int, b: int) -> bool:
    # open band: 1/sqrt(3) < a/b < 1
    return 3 * a * a > b * b and a < b


def _in_p322(a: int, b: int) -> bool:
    # closed band so the tablet's own extreme rows count as inside
    return a * _P322_LOW[1] >= _P322_LOW[0] * b and a * _P322_HIGH[1] <= _P322_HIGH[0] * b


# band name -> test on the legs (a, b); the tests are homogeneous, so reduced legs agree
_BANDS = {
    BAND_FULL: lambda a, b: True,
    BAND_PI6_PI4: _in_pi6_pi4,
    BAND_P322: _in_p322,
}


def _band_test(band: str):
    try:
        return _BANDS[band]
    except KeyError:
        raise ValueError(f"unknown band {band!r}") from None


def q_set(q_values: Iterable[int], m: int = 12) -> Sequence[int]:
    """The scale generators sorted and deduplicated; ValueError on bad input.

    An ascending step-1 range is already both and is returned as it is, so a
    wide --Q-range holds two integers rather than a list and a set.
    """
    if isinstance(q_values, range) and q_values.step == 1:
        qs = q_values
    else:
        qs = sorted(set(q_values))
    if not qs:
        raise ValueError("empty Q set")
    if m < 1 or qs[0] < 1:
        raise ValueError(f"M and Q must be >= 1, got M={m} and Q={qs[0]}")
    return qs


def _sides(
    qs: Iterable[int], m: int, lo: int = 2, hi: int | None = None
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(q, x, y, a, b, d) for every solution over the checked scale generators, in
    (Q, x) order: b = m*Q, the divisors lo <= x < hi of b**2 (hi None: b) with
    y = b**2/x of x's parity, a = (y - x)/2 and d = (y + x)/2, each checked to be
    a right triangle.  Only those divisors are built: for odd b every one has
    odd y, and for even b = 2c the even product x*y forces both even, so x = 2u
    for the divisors u of c**2 with lo <= 2u < hi."""
    for q in qs:
        b = m * q
        bsq = b * b
        k = 2 - (b & 1)  # x and y are multiples of k
        c = b // k
        csq = c * c
        for u in divisors_from_factors({p: 2 * e for p, e in factorize(c).items()},
                                       -(-lo // k), c if hi is None else -(-hi // k)):
            x, y = k * u, k * (csq // u)
            a, d = (y - x) // 2, (y + x) // 2
            if a * a + bsq != d * d:
                raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
            yield q, x, y, a, b, d


def enumerate_solutions(q_values: Iterable[int], m: int = 12) -> list[GeneratorSolution]:
    """All solutions for the given scale generators, ordered by (Q, x)."""
    qs = q_set(q_values, m)
    r = {q: prime_to_60(m * q) for q in qs}  # once per Q
    return [solution(q, x, y, a, b, d, m, r[q]) for q, x, y, a, b, d in _sides(qs, m)]


# L per sieve segment: the segment's lists, not the Q range, set the memory
_SEGMENT = 1 << 12


def _range_legs(lo: int, hi: int) -> Iterator[tuple[int, int, bool, list[int]]]:
    """(L, how many Q in lo..hi L divides, L in lo..hi, L's odd prime powers) for every
    L in 1..hi that divides some Q in lo..hi, by a segmented sieve: memory stays flat."""
    primes = [p for p in range(3, isqrt(hi) + 1, 2) if is_prime(p)]
    for start in range(1, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT, hi + 1)
        odd: list[list[int]] = [[] for _ in range(start, stop)]
        for p in primes:
            if p * p >= stop:  # each L < stop has at most one prime factor left
                break
            for pps in odd[-start % p::p]:
                pps.append(p)
            pk = p * p
            while pk < stop:
                for pps in odd[-start % pk::pk]:
                    pps[-1] *= p
                pk *= p
        for leg, pps in zip(range(start, stop), odd):
            if mult := hi // leg - (lo - 1) // leg:
                if (rest := leg // ((leg & -leg) * prod(pps))) > 1:
                    pps.append(rest)
                yield leg, mult, leg >= lo, pps


def _set_legs(qs: Sequence[int]) -> Iterator[tuple[int, int, bool, list[int]]]:
    """_range_legs from the divisors of each Q, their prime powers read off Q's.  A range
    yields each L at its first multiple and counts the rest, so keeps no table."""
    ranged, lo, hi = isinstance(qs, range), qs[0], qs[-1]
    found: dict[int, list] = {}  # L -> [mult, odd prime powers], for a set that is no range
    for q in qs:
        factors = factorize(q)
        odd = [p**e for p, e in factors.items() if p > 2]
        for d in divisors_from_factors(factors):  # d's power of each odd p is gcd(d, p**e)
            pps = [g for pk in odd if (g := gcd(d, pk)) > 1]
            if not ranged:
                found.setdefault(d, [0, pps])[0] += 1
            elif q - d < lo:  # q is d's first multiple in lo..hi
                yield d, hi // d - (lo - 1) // d, d >= lo, pps
    members = set(qs) if found else ()  # a range left no table
    yield from ((leg, mult, leg in members, pps) for leg, (mult, pps) in found.items())


def _free_powers(factors: dict[int, int], twos: int, g: int, odd_leg: bool) -> list[list[int]]:
    """What each allowed g | m = 2**twos * (odd factors) adds to N beyond L's own primes, for
    g = gcd(L, odd part of m): p**i (i <= e) for each odd p**e || m that L lacks, and for odd L
    2**(i - 1) for 2**i || g (i = 1 is n = 2 mod 4)."""
    options = [[p**i for i in range(e + 1)] for p, e in factors.items() if g % p]
    if odd_leg:
        options.append([1] + [2 ** (i - 1) for i in range(2, twos + 1)])
    return [[pk for pk in choice if pk > 1] for choice in product(*options)]


def count_stats(q_values: Iterable[int], m: int = 12) -> SurveyStats:
    """stats(enumerate_solutions(q_values, m)), counted by primitive leg with no divisor walk.

    Every solution for Q is k times one oriented primitive triple (a0, b0, d0)
    with k*b0 = m*Q, so its class meets exactly the Q that L = b0/gcd(b0, m)
    divides, once each.  The b-legs with a given L are n = g*L for each g
    dividing m with gcd(L, m/g) = 1.  Let N be n for odd n and n/2 for 4 | n;
    n = 2 (mod 4) is no b-leg.  The classes with b-leg n are the splits
    N = s*t into coprime s < t, one per pair of unitary divisors, with legs
    (t*t - s*s, 2*s*t) or half of them, so with the same bands.  The one
    solution missing is x = 1: the split s = 1 of odd n = m*L at Q = L.
    """
    qs = q_set(q_values, m)
    # the sieve costs a step per L to HIGH, each Q's divisors about sqrt(HIGH)/4 (measured at 10**6)
    sieve = isinstance(qs, range) and 4 * qs[-1] <= len(qs) * isqrt(qs[-1])
    legs = _range_legs(qs[0], qs[-1]) if sieve else _set_legs(qs)
    factors = factorize(m)
    twos = factors.pop(2, 0)
    powers = {p: p**e for p, e in factors.items()}  # m's odd prime powers
    radical = prod(powers)
    free = {(g, odd_leg): _free_powers(factors, twos, g, odd_leg)
            for g in divisors_from_factors(dict.fromkeys(powers, 1)) for odd_leg in (False, True)}
    total = band = p322 = distinct = distinct_band = distinct_p322 = 0
    for leg, mult, member, pps in legs:
        if (g := gcd(leg, radical)) > 1:  # g takes m's whole power of each prime of L
            pps = [pk * powers[p] if (p := gcd(pk, g)) > 1 else pk for pk in pps]
        if (two := leg & -leg) > 1:
            if two == 2 and not twos:  # n = 2 (mod 4) for every g
                continue
            pps = pps + [(two << twos) >> 1]
        for extra in free[g, two == 1]:
            if not (unitary := pps + extra):  # N = 1
                continue
            count = 1 << (len(unitary) - 1)
            total += mult * count
            distinct += count
            big = prod(unitary)
            splits = [1]
            for pk in unitary[1:]:  # unitary[0] stays in t, so each split comes once
                splits += [s * pk for s in splits]
            for s in splits:
                t = big // s
                # cheap superset of the band, whose max/min is in (sqrt 3, 1 + sqrt 2): keep it so
                if 3 * s < 2 * t < 5 * s or 3 * t < 2 * s < 5 * t:
                    a, b = abs(t * t - s * s), 2 * s * t
                    if _in_pi6_pi4(a, b):
                        band += mult
                        distinct_band += 1
                        if _in_p322(a, b):
                            p322 += mult
                            distinct_p322 += 1
        if member and (m * leg) & 1 and m * leg > 1:  # x = 1: the split s = 1 of n = m*L at Q = L
            total, distinct = total - 1, distinct - (mult == 1)  # still distinct if another Q has it
    return SurveyStats(total, band, p322, distinct, distinct_band, distinct_p322)


def band_filter(
    solutions: Iterable[GeneratorSolution], band: str = BAND_FULL
) -> list[GeneratorSolution]:
    keep = _band_test(band)
    return [s for s in solutions if keep(s.triple.a, s.triple.b)]


def _tally(sides: Iterable[tuple[int, int]]) -> SurveyStats:
    """Counts and distinct reduced angles of the (a, b) leg pairs, overall and per band."""
    all_angles, band_angles, p322_angles = set(), set(), set()
    total = band = p322 = 0
    for a, b in sides:
        g = gcd(a, b)
        angle = (a // g, b // g)
        total += 1
        all_angles.add(angle)
        if _in_pi6_pi4(a, b):
            band += 1
            band_angles.add(angle)
            if _in_p322(a, b):  # the tablet band lies inside (pi/6, pi/4)
                p322 += 1
                p322_angles.add(angle)
    return SurveyStats(
        total, band, p322, len(all_angles), len(band_angles), len(p322_angles)
    )


def stats(solutions: Iterable[GeneratorSolution]) -> SurveyStats:
    """Survey counts over built solutions."""
    return _tally((s.triple.a, s.triple.b) for s in solutions)


def p322_selection(solutions: Iterable[GeneratorSolution]) -> list[Triple]:
    """Triples in the tablet band that are primitive or 60 times a primitive.

    Applied to the tablet's own Q set this keeps one representative of each
    of the fifteen carved angle classes and rejects the lone sixteenth class
    (the one reducing to (175, 288, 337)).  Output in descending angle order.
    """
    kept = []
    for s in solutions:
        t = s.triple
        if not _in_p322(t.a, t.b):
            continue
        p = primitive_reduce(t)
        if t == p or t == p.scaled(60):
            kept.append(t)
    kept.sort(key=angle_fraction, reverse=True)
    return kept


def rejected_p322_classes(solutions: Iterable[GeneratorSolution]) -> list[Triple]:
    """Angle classes in (pi/6, pi/4) that the tablet selection leaves out."""
    solutions = list(solutions)
    selected = {angle_fraction(t) for t in p322_selection(solutions)}
    out: dict[tuple[int, int], Triple] = {}
    for s in solutions:
        t = s.triple
        if _in_pi6_pi4(t.a, t.b) and angle_fraction(t) not in selected:
            p = primitive_reduce(t)
            out.setdefault((p.a, p.b), p)
    return [out[a] for a in sorted(out)]


# each bin costs one list slot, one (low, high, count) tuple and one CSV line
_MAX_BINS = 10**6


class Histogram(NamedTuple):
    bin_width: float
    bins: tuple[tuple[float, float, int], ...]  # (low, high, count), [low, high)

    @property
    def total(self) -> int:
        return sum(c for (_, _, c) in self.bins)

    def write_csv(self, fp: TextIO) -> None:
        fp.write("bin_low_deg,bin_high_deg,count\n")
        for low, high, count in self.bins:
            fp.write(f"{low:.6f},{high:.6f},{count}\n")


def bin_count(bin_width_deg: float) -> int:
    """Number of histogram bins of this width over (0, 90); ValueError for an unusable width."""
    if not (bin_width_deg > 0 and math.isfinite(bin_width_deg)):
        raise ValueError(f"bin width must be positive and finite, got {bin_width_deg}")
    if 90.0 / bin_width_deg > _MAX_BINS:
        raise ValueError(f"bin width {bin_width_deg} gives too many bins")
    return math.ceil(90.0 / bin_width_deg)


def histogram(solutions: Iterable[GeneratorSolution], bin_width_deg: float = 1.0) -> Histogram:
    """Counts of solutions by angle over contiguous [low, high) bins spanning (0, 90)."""
    last = bin_count(bin_width_deg) - 1
    counts = [0] * (last + 1)
    for s in solutions:
        counts[min(int(degrees(atan2(s.triple.a, s.triple.b)) // bin_width_deg), last)] += 1
    return _binned(counts, bin_width_deg)


def _binned(counts: list[int], width: float) -> Histogram:
    return Histogram(width, tuple((i * width, (i + 1) * width, c) for i, c in enumerate(counts)))


CSV_HEADER = (
    "Q,x,y,a,b,d,fourth_coefficient,fourth_shift,"
    "primitive_a,primitive_b,primitive_d,theta_deg"
)


def write_records_csv(solutions: Iterable[GeneratorSolution], fp: TextIO) -> None:
    """One CSV row per solution; the fourth-column cells are blank when the ratio
    has no finite base-60 form (irregular Q)."""
    fp.write(CSV_HEADER + "\n")
    for s in solutions:
        t = s.triple
        p = primitive_reduce(t)
        coeff, shift = (s.fourth.coefficient, s.fourth.shift) if s.fourth else ("", "")
        fp.write(f"{s.q},{s.x},{s.y},{t.a},{t.b},{t.d},{coeff},{shift},"
                 f"{p.a},{p.b},{p.d},{degrees(atan2(t.a, t.b)):.12f}\n")


def export(q_values: Iterable[int], m: int, band: str, fp: TextIO | None,
           bin_width_deg: float | None) -> Histogram | None:
    """write_records_csv to fp (unless None) and return the histogram (unless the width
    is None) of band_filter(enumerate_solutions(q_values, m), band), in one loop over
    the divisor stream that builds no solution.  With r the part of b = m*Q prime to
    60, the primitive leg pb = b/gcd(a, b) is regular iff r divides a, and the fourth
    column of a regular pb comes from the bounded cache of factor.reciprocal_square."""
    qs = q_set(q_values, m)
    keep = None if band == BAND_FULL else _band_test(band)
    if bin_width_deg is not None:
        last = bin_count(bin_width_deg) - 1
        counts = [0] * (last + 1)
    if fp is not None:
        write = fp.write
        write(CSV_HEADER + "\n")
    q_now = None
    for q, x, y, a, b, d in _sides(qs, m):
        if keep is not None and not keep(a, b):
            continue
        theta = degrees(atan2(a, b))
        if bin_width_deg is not None:
            i = int(theta // bin_width_deg)
            counts[i if i < last else last] += 1
        if fp is None:
            continue
        if q != q_now:  # once per Q: r, and the text of q and b
            q_now, r, q_text, b_text = q, prime_to_60(b), f"{q},", f",{b},"
        g = gcd(a, b)  # divides d too
        pa, pb = a // g, b // g
        if a % r:  # pb keeps a prime above 5: no finite base-60 form
            coeff = shift = ""
        else:
            shift, mult = reciprocal_square(pb)
            coeff = pa * pa * mult
        write(f"{q_text}{x},{y},{a}{b_text}{d},{coeff},{shift},{pa},{pb},{d // g},{theta:.12f}\n")
    return None if bin_width_deg is None else _binned(counts, bin_width_deg)
