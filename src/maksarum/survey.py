"""Mass enumeration of integer solutions, band filters, statistics, histograms.

For each scale generator Q the solutions are the divisors x of (M*Q)**2 with
2 <= x < M*Q and x matching y = (M*Q)**2/x in parity.  Angle comparisons are
exact (reduced ratios, cross-multiplication); floating point enters only in
histogram binning and display columns.
"""

from __future__ import annotations

import math
from math import atan2, degrees, gcd, isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .factor import GeneratorSolution, Triple, angle_fraction, solve_integer
from .ntheory import divisors_from_factors, factorize
from .sexagesimal import BASE, regular_power

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
    a right triangle."""
    for q in qs:
        b = m * q
        bsq = b * b
        for x in divisors_from_factors({p: 2 * e for p, e in factorize(b).items()},
                                       lo, b if hi is None else hi):
            y = bsq // x
            if (y - x) % 2:
                continue
            a, d = (y - x) // 2, (y + x) // 2
            if a * a + bsq != d * d:
                raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
            yield q, x, y, a, b, d


def enumerate_solutions(q_values: Iterable[int], m: int = 12) -> list[GeneratorSolution]:
    """All solutions for the given scale generators, ordered by (Q, x)."""
    return [solve_integer(x, q, m) for q, x, *_ in _sides(q_set(q_values, m), m)]


# The class walk costs about 1 to 3 us per unit of m*hi whatever lo is; the
# divisor stream about 15 us to 1.4 ms per Q, more as (m*Q)**2 has more
# divisors. Their measured crossover m*hi/len(qs) is about 11 to 35 at m = 1 and
# at least 16.8 for every m >= 2 measured (tools/crossover.py; runs are in
# BENCH_9.json and BENCH_10.json), so the class walk is picked slower only at m = 1.
_CLASS_COST_RATIO = 16


def count_stats(q_values: Iterable[int], m: int = 12) -> SurveyStats:
    """stats(enumerate_solutions(q_values, m)), counted without building solutions.

    One range [lo, hi] with m*hi at most _CLASS_COST_RATIO times its length is
    counted from the primitive classes, whose cost grows with m*hi; any other
    Q set from the divisor stream, whose cost grows with the number of Q.
    """
    qs = q_set(q_values, m)
    lo, hi = qs[0], qs[-1]
    if len(qs) == hi - lo + 1 and m * hi <= _CLASS_COST_RATIO * len(qs):
        return _class_stats(lo, hi, m)
    return _tally((a, b) for _, _, _, a, b, _ in _sides(qs, m))


def _primitive_legs(top: int) -> Iterator[tuple[int, int, bool]]:
    """(a0, b0, d0 - a0 == 1) for every oriented primitive triple with b0 <= top.

    Euclid's form: u > v >= 1, coprime and of opposite parity, with legs
    u*u - v*v and 2*u*v; each v range holds only the v whose b-leg fits.
    """
    for u in range(2, (top + 1) // 2 + 1):
        uu = u * u
        for v in range(1 + u % 2, min(u, top // (2 * u) + 1), 2):  # b0 = 2uv
            if gcd(u, v) == 1:
                yield uu - v * v, 2 * u * v, False
        first = isqrt(uu - top - 1) + 1 if uu > top else 1
        for v in range(first + (u - first + 1) % 2, u, 2):  # b0 = u*u - v*v, d0 - a0 = (u - v)**2
            if gcd(u, v) == 1:
                yield 2 * u * v, uu - v * v, v == u - 1


def _class_stats(lo: int, hi: int, m: int) -> SurveyStats:
    """count_stats(range(lo, hi + 1), m) from the primitive classes, with no divisor walk.

    Every solution is k times one oriented primitive triple (a0, b0, d0) with
    k*b0 = m*Q, so the class meets exactly the Q that L = b0/gcd(b0, m)
    divides, once each; the one it loses is x = k*(d0 - a0) = 1, at k = 1 and
    Q = L.  The bands depend only on (a0, b0).
    """
    total = band = p322 = distinct = distinct_band = distinct_p322 = 0
    for a0, b0, unit in _primitive_legs(m * hi):
        step = b0 // gcd(b0, m)
        if step > hi:
            continue
        n = hi // step - (lo - 1) // step
        if unit and b0 == step * m and lo <= step:
            n -= 1
        if n:
            total += n
            distinct += 1
            if _in_pi6_pi4(a0, b0):
                band += n
                distinct_band += 1
                if _in_p322(a0, b0):
                    p322 += n
                    distinct_p322 += 1
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


def theta_degrees(a: int, b: int) -> float:
    """Display-only angle in degrees of the legs (a, b)."""
    return degrees(atan2(a, b))


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
        counts[min(int(theta_degrees(s.triple.a, s.triple.b) // bin_width_deg), last)] += 1
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
                 f"{p.a},{p.b},{p.d},{theta_degrees(t.a, t.b):.12f}\n")


def export(q_values: Iterable[int], m: int, band: str, fp: TextIO | None,
           bin_width_deg: float | None) -> Histogram | None:
    """write_records_csv to fp (unless None) and return the histogram (unless the width
    is None) of band_filter(enumerate_solutions(q_values, m), band), in one loop over
    the divisor stream that builds no solution.  With r the part of b = m*Q prime to
    60, the primitive leg pb = b/gcd(a, b) is regular iff r divides a; the fourth
    column's (shift, 60**shift // pb**2) is kept per regular pb only, a few hundred
    5-smooth legs even at Q up to 10**5, so memory does not grow with the Q range."""
    qs = q_set(q_values, m)
    keep = None if band == BAND_FULL else _band_test(band)
    if bin_width_deg is not None:
        last = bin_count(bin_width_deg) - 1
        counts = [0] * (last + 1)
    if fp is not None:
        write = fp.write
        write(CSV_HEADER + "\n")
    regular: dict[int, tuple[int, int]] = {}
    q_now = None
    for q, x, y, a, b, d in _sides(qs, m):
        if keep is not None and not keep(a, b):
            continue
        theta = degrees(atan2(a, b))  # theta_degrees(a, b)
        if bin_width_deg is not None:
            i = int(theta // bin_width_deg)
            counts[i if i < last else last] += 1
        if fp is None:
            continue
        if q != q_now:  # once per Q: r, and the text of q and b
            q_now, r, q_text, b_text = q, b, f"{q},", f",{b},"
            while (g := gcd(r, BASE)) > 1:
                r //= g
        g = gcd(a, b)  # divides d too
        pa, pb = a // g, b // g
        if a % r:  # pb keeps a prime above 5: no finite base-60 form
            coeff = shift = ""
        else:  # (pa/pb)**2 is a**2/b**2 in lowest terms, so the minimal shift is the same
            if pb not in regular:
                shift = regular_power(pb * pb)
                regular[pb] = shift, BASE**shift // (pb * pb)
            shift, mult = regular[pb]
            coeff = pa * pa * mult
        write(f"{q_text}{x},{y},{a}{b_text}{d},{coeff},{shift},{pa},{pb},{d // g},{theta:.12f}\n")
    return None if bin_width_deg is None else _binned(counts, bin_width_deg)
