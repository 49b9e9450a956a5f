"""Mass enumeration of integer solutions, band filters, statistics, histograms.

For each scale generator Q the solutions are the divisors x of b**2, b = M*Q,
with 2 <= x < b and x matching y = b**2/x in parity.  Only those are built:
every divisor for odd b, and twice each divisor of (b/2)**2 for even b.  Angle
comparisons are exact (reduced ratios, cross-multiplication); floating point
enters only in histogram binning and display columns.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack
from io import TextIOBase
from itertools import product
from math import atan2, ceil, degrees, floor, gcd, isqrt, prod
from operator import add

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


class SurveyStats(namedtuple(
    "SurveyStats", "total pi6_pi4 p322 distinct_total distinct_pi6_pi4 distinct_p322"
)):
    """Solution counts, all int: in total, in the pi/6..pi/4 band and in the tablet's
    band, then the same three counts of distinct reduced angles."""

    __slots__ = ()


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
    """The scale generators sorted and deduplicated; TypeError for a Q that is no int,
    ValueError for an empty set or a Q or M below 1.

    A set with no gap is returned as range(lo, hi + 1), whatever held it, so
    count_stats takes one path per set and a wide --Q-range holds two
    integers rather than a list and a set.
    """
    if isinstance(q_values, range) and abs(q_values.step) == 1:
        qs = q_values if q_values.step == 1 else q_values[::-1]
    else:
        qs = list(q_values)
        for q in qs:
            if not isinstance(q, int):
                raise TypeError(f"Q must be an int, got {q!r}")
        qs = sorted(set(qs))
        if qs and len(qs) == qs[-1] - qs[0] + 1:
            qs = range(qs[0], qs[-1] + 1)
    if not qs:
        raise ValueError("empty Q set")
    if m < 1 or qs[0] < 1:
        raise ValueError(f"M and Q must be >= 1, got M={m} and Q={qs[0]}")
    return qs


def _window(b: int, lo: int = 2, hi: int | None = None) -> tuple[int, int, list[int]]:
    """(k, c*c, us) for b = m*Q, c = b/k: the x in lo <= x < hi (hi None: b) with y = b**2/x
    of x's parity are k*u for the divisors u of c**2 in us.  For odd b (k = 1) every y is
    odd; for even b (k = 2) the even product x*y forces both x and y even."""
    k = 2 - (b & 1)
    c = b // k
    return k, c * c, divisors_from_factors({p: 2 * e for p, e in factorize(c).items()},
                                           -(-lo // k), c if hi is None else -(-hi // k))


def _sides(
    qs: Iterable[int], m: int, lo: int = 2, hi: int | None = None
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(q, x, y, a, b, d) for every solution over the checked scale generators, in
    (Q, x) order: b = m*Q, x from _window(b, lo, hi), y = b**2/x, a = (y - x)/2 and
    d = (y + x)/2, each checked to be a right triangle.  export walks the same window
    in a loop of its own, which spares it a generator resume per row."""
    for q in qs:
        b = m * q
        bsq = b * b
        k, csq, us = _window(b, lo, hi)
        for u in us:
            x, y = k * u, k * (csq // u)
            a, d = (y - x) // 2, (y + x) // 2
            if a * a + bsq != d * d:
                raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
            yield q, x, y, a, b, d


def _bounded_sides(
    m: int, max_frac_digits: int, x_range: tuple[Fraction, Fraction] | None
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """_sides at Q = 60**max_frac_digits over the window of the pairs within the digit
    budget; each pair is (x, y) / 60**max_frac_digits.  M, the budget and the X range
    are checked when this is called, before any pair is made."""
    if m < 1:
        raise ValueError(f"M must be >= 1, got {m}")
    if max_frac_digits < 0:
        raise ValueError(f"max_frac_digits must be >= 0, got {max_frac_digits}")
    scale = 60**max_frac_digits
    b = m * scale
    # theta < pi/4 (A < m) is y - x < 2b, i.e. x > b*(sqrt(2) - 1); 2b**2 is no square
    lo, hi = isqrt(2 * b * b) - b + 1, b
    if x_range is not None:
        from fractions import Fraction

        xmin, xmax = Fraction(x_range[0]), Fraction(x_range[1])
        if xmin > xmax:
            raise ValueError(f"empty X range: Xmin {xmin} is above Xmax {xmax}")
        lo, hi = max(lo, ceil(xmin * scale)), min(hi, floor(xmax * scale) + 1)
    return _sides([scale], m, lo, hi)


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
    found: dict[int, list] = {}  # L -> [mult, odd prime powers], for a set with gaps
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


def _band_walk(lo: int, hi: int, m: int) -> tuple[int, int, int, int]:
    """count_stats' band figures over the Q in lo..hi: the totals in (pi/6, pi/4) and in
    the tablet band, then their distinct counts, from the classes in the band alone.

    Those are Euclid's u > v >= 1, coprime and of opposite parity, with
    sqrt 3 < u/v < 2 + sqrt 3; the b-leg b0 is the longer of u*u - v*v and
    2*u*v, so the band test at 1 + sqrt 2, where they swap, is the sort.  The
    class meets the Q that L = b0/gcd(b0, m) divides, so only b0 <= m*hi
    counts, and b0 grows with u.  About m*hi/12 pairs, no table.
    """
    top = m * hi
    band = p322 = distinct_band = distinct_p322 = 0
    v = 1
    # r = floor(sqrt 3 * v): u > sqrt 3 * v is u > r, and (u - 2v)**2 < 3*v*v is u <= 2v + r
    while 2 * v * ((r := isqrt(3 * v * v)) + 1) <= top:  # the least b0 of the band at this v
        stop = min(2 * v + r, top // (2 * v), isqrt(top + v * v))  # and b0 <= top
        for u in range(r + 1 + ((r + v) & 1), stop + 1, 2):
            if gcd(u, v) == 1:
                a, b = u * u - v * v, 2 * u * v
                if a > b:
                    a, b = b, a
                leg = b // gcd(b, m)
                if mult := hi // leg - (lo - 1) // leg:
                    band += mult
                    distinct_band += 1
                    if _in_p322(a, b):
                        p322 += mult
                        distinct_p322 += 1
        v += 1
    return band, p322, distinct_band, distinct_p322


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
    A range wide enough for the sieve, at an m small next to its number of
    divisors, counts the bands by _band_walk instead of by split.
    """
    qs = q_set(q_values, m)
    # the sieve costs a step per L to HIGH, each Q's divisors about sqrt(HIGH)/4 (measured at 10**6)
    sieve = isinstance(qs, range) and 4 * qs[-1] <= len(qs) * isqrt(qs[-1])
    legs = _range_legs(qs[0], qs[-1]) if sieve else _set_legs(qs)
    factors = factorize(m)
    # the split walk tests 1.5 to 4.5 splits per divisor of m per L, the band walk about
    # m*HIGH/12 pairs.  Over 1..2000 the band walk took 0.25 to 0.71 of the split walk's time
    # up to m = 20*tau(m), 0.56 to 1.01 from 26*tau(m) to 36*tau(m), and 2.1 times as long at
    # m = 1001 (125*tau(m)).  A window holds fewer L than HIGH, at least its width, so it
    # needs m*HIGH/width below the bound
    bands = sieve and m * qs[-1] <= 24 * len(qs) * prod(e + 1 for e in factors.values())
    twos = factors.pop(2, 0)
    powers = {p: p**e for p, e in factors.items()}  # m's odd prime powers
    radical = prod(powers)
    free = {(g, odd_leg): _free_powers(factors, twos, g, odd_leg)
            for g in divisors_from_factors(dict.fromkeys(powers, 1)) for odd_leg in (False, True)}
    # N's classes double with each unitary part: the sum of 2**len(extra) over the choices, odd
    # for the empty one, so halving drops N = 1, which has no class
    weight = {key: sum(1 << len(extra) for extra in extras) for key, extras in free.items()}
    total = band = p322 = distinct = distinct_band = distinct_p322 = 0
    for leg, mult, member, pps in legs:
        if (two := leg & -leg) == 2 and not twos:  # n = 2 (mod 4) for every g
            continue
        g = gcd(leg, radical)
        # the parts of N from L: its odd prime powers, and one of 2 for even L
        count = (weight[g, two == 1] << (len(pps) + (two > 1))) >> 1
        total += mult * count
        distinct += count
        if member and (m * leg) & 1 and m * leg > 1:  # x = 1: the split s = 1 of n = m*L at Q = L
            total, distinct = total - 1, distinct - (mult == 1)  # still distinct if another Q has it
        if bands:
            continue
        if g > 1:  # g takes m's whole power of each prime of L
            pps = [pk * powers[p] if (p := gcd(pk, g)) > 1 else pk for pk in pps]
        if two > 1:
            pps = pps + [(two << twos) >> 1]
        for extra in free[g, two == 1]:
            if not (unitary := pps + extra):  # N = 1
                continue
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
    if bands:  # x = 1 is never in the band
        band, p322, distinct_band, distinct_p322 = _band_walk(qs[0], qs[-1], m)
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


class Histogram(namedtuple("Histogram", "bin_width bins")):
    """Angle counts: bin_width: float in degrees, and bins: tuple[tuple[float, float, int], ...]
    of (low, high, count), each bin [low, high)."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(c for (_, _, c) in self.bins)

    def write_csv(self, fp: TextIOBase) -> None:
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


def write_records_csv(solutions: Iterable[GeneratorSolution], fp: TextIOBase) -> None:
    """One CSV row per solution; the fourth-column cells are blank when the ratio
    has no finite base-60 form (irregular Q)."""
    fp.write(CSV_HEADER + "\n")
    for s in solutions:
        t = s.triple
        p = primitive_reduce(t)
        coeff, shift = (s.fourth.coefficient, s.fourth.shift) if s.fourth else ("", "")
        fp.write(f"{s.q},{s.x},{s.y},{t.a},{t.b},{t.d},{coeff},{shift},"
                 f"{p.a},{p.b},{p.d},{degrees(atan2(t.a, t.b)):.12f}\n")


# rows per fp.write in export: with one write per Q, survey --Q 200560490130 --out
# (246,037 rows of 138 bytes) peaked at 145 MiB against 31 MiB; a block takes 1.3 MB
_BLOCK = 4096
# export walks its first Qs in one process until they have given this many rows before the
# band filter, and forks for the rest only if, at their rate, the rest holds _FORK_MIN_ROWS
_PROBE_ROWS = 2000
# on a 2-vCPU guest a fork, its spill file and the copy took about 3 ms.  With the histogram
# alone or the p322 band (about 0.8 us a row at small Q) the fork lost at 10,000 rows and won
# at 40,000; with the whole CSV (about 4 us a row) it won from 10,000.  Rows per Q grow with Q,
# so the first Qs' rate is low for a range from 1: at M = 12 the least that forks is 1..941,
# with 40,820 rows (BENCH_27.json)
_FORK_MIN_ROWS = 20_000
# the parent's share of the Qs, below half because it also copies the child's rows
_HEAD_SHARE = 0.47
# characters per fp.write when the child's rows are copied: chunks of 1 MiB raised the
# benchmark window's peak RSS by 3.7 MiB, chunks of 64 KiB by less than 0.1 MiB
_COPY = 1 << 16


def export(q_values: Iterable[int], m: int, band: str, fp: TextIOBase | None,
           bin_width_deg: float | None) -> Histogram | None:
    """write_records_csv to fp (unless None) and return the histogram (unless the width
    is None) of band_filter(enumerate_solutions(q_values, m), band), in one loop per Q
    that builds no solution (_rows).

    The first Qs are walked by this process until they have given _PROBE_ROWS rows
    before the band filter.  If the other Qs, at the same rows per Q, hold at least
    _FORK_MIN_ROWS rows, os.fork exists, this process runs no other thread and may use
    a second CPU, those Qs are split in two: a forked child walks the last 53% of them
    into an unlinked temporary file while this process walks the first 47% into fp,
    then copies the child's rows after its own in chunks of _COPY characters through
    fp.write.  So the rows keep their order, any text sink works and memory stays
    flat, and no Q is factorized twice.  A set with fewer rows, or one Q however many
    rows it has, is walked by this process alone.  An exception of the child is raised
    here with its class and text; the child is reaped before this returns or raises,
    and killed first if this process fails."""
    qs = q_set(q_values, m)
    keep = None if band == BAND_FULL else _band_test(band)
    if fp is None and bin_width_deg is None:
        return None
    counts = None if bin_width_deg is None else [0] * bin_count(bin_width_deg)
    write = None
    if fp is not None:
        write = fp.write
        write(CSV_HEADER + "\n")
    done = rows = 0
    while done < len(qs) and rows < _PROBE_ROWS:
        rows += _rows(qs[done:done + 1], m, keep, write, counts, bin_width_deg)
        done += 1
    rest = qs[done:]
    if len(rest) > 1 and rows * len(rest) >= _FORK_MIN_ROWS * done and _forkable():
        split = round(len(rest) * _HEAD_SHARE)
        _two_processes(rest[:split], rest[split:], m, keep, fp, counts, bin_width_deg)
    else:
        _rows(rest, m, keep, write, counts, bin_width_deg)
    return None if counts is None else _binned(counts, bin_width_deg)


def _forkable() -> bool:
    """os.fork exists, no other thread runs (a forked child would hold no copy of it), and
    this process may use a second CPU."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no CPU affinity on this platform
        return (os.cpu_count() or 1) > 1


def _two_processes(head: Sequence[int], tail: Sequence[int], m: int, keep, fp: TextIOBase | None,
                   counts: list[int] | None, width: float | None) -> None:
    """_rows over head here and over tail in a forked child; the child's rows are copied to
    fp after head's, and its bin counts are added to counts."""
    import tempfile  # only a long export needs it

    with ExitStack() as stack:
        spill = None if fp is None else stack.enter_context(
            tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        readable, writable = os.pipe()
        reply = stack.enter_context(open(readable, "rb"))
        try:
            pid = os.fork()
            if pid == 0:  # the child counts its own bins, from zero
                zeros = None if counts is None else [0] * len(counts)
                _child(tail, m, keep, spill, zeros, width, writable)
        finally:
            os.close(writable)
        try:
            _rows(head, m, keep, None if fp is None else fp.write, counts, width)
            answer = reply.read()
        except BaseException:
            import signal
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        if answer[:1] == b"E":
            import pickle
            raise pickle.loads(answer[1:])
        if answer[:1] != b"C":  # the child ended before it could answer
            raise ChildProcessError(
                f"export's second process ended with exit code {os.waitstatus_to_exitcode(status)}")
        if counts is not None:
            counts[:] = map(add, counts, marshal.loads(answer[1:]))
        if spill is not None:
            spill.seek(0)
            while chunk := spill.read(_COPY):
                fp.write(chunk)


def _child(tail: Sequence[int], m: int, keep, spill: TextIOBase | None, counts: list[int] | None,
           width: float | None, writable: int):
    """The forked child: _rows over tail into spill, then b"C" and its bin counts, or b"E" and
    its pickled exception, to the pipe.  It leaves by os._exit, which runs no cleanup of the
    parent's and flushes none of its buffers, fp's and stdout's included."""
    status = 1
    try:
        with open(writable, "wb") as reply:
            try:
                _rows(tail, m, keep, None if spill is None else spill.write, counts, width)
                if spill is not None:
                    spill.flush()
                answer = b"C" + marshal.dumps(counts)
            except BaseException as exc:
                import pickle
                answer = b"E" + pickle.dumps(exc)
            reply.write(answer)
        status = 0
    finally:
        os._exit(status)


def _rows(qs: Iterable[int], m: int, keep, write, counts: list[int] | None,
          width: float | None) -> int:
    """export's loop: each row of the Qs to write (unless None) and each angle into counts
    (unless None); it returns the number of rows before the band filter.  It walks the
    same _window as _sides, with the same right-angle check.  Each Q's rows come from
    two templates built once for that Q, one for each form of the fourth column, and are
    written in blocks of at most _BLOCK rows.  With r the part of b = m*Q prime to 60,
    the primitive leg pb = b/gcd(a, b) is regular iff r divides a, and the fourth column
    of a regular pb comes from the bounded cache of factor.reciprocal_square."""
    binned = counts is not None
    last = len(counts) - 1 if binned else 0
    walked = 0
    for q in qs:
        b = m * q
        bsq = b * b
        k, csq, divisors = _window(b)
        walked += len(divisors)
        if write is not None:
            r = prime_to_60(b)
            head = "%d,%%d,%%d,%%d,%d,%%d," % (q, b)
            irregular = head + ",,%d,%d,%d,%.12f\n"
            regular = head + "%d,%d,%d,%d,%d,%.12f\n"
        for start in range(0, len(divisors), _BLOCK):
            rows = []
            for u in divisors[start:start + _BLOCK]:
                x, y = k * u, k * (csq // u)
                a, d = (y - x) // 2, (y + x) // 2
                if a * a + bsq != d * d:
                    raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
                if keep is not None and not keep(a, b):
                    continue
                theta = degrees(atan2(a, b))
                if binned:
                    i = int(theta // width)
                    counts[i if i < last else last] += 1
                if write is None:
                    continue
                g = gcd(a, b)  # divides d too
                pa, pb = a // g, b // g
                if a % r:  # pb keeps a prime above 5: no finite base-60 form
                    rows.append(irregular % (x, y, a, d, pa, pb, d // g, theta))
                else:
                    shift, mult = reciprocal_square(pb)
                    rows.append(regular % (x, y, a, d, pa * pa * mult, shift, pa, pb, d // g, theta))
            if rows:
                write("".join(rows))
    return walked
