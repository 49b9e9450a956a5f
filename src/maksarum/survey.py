"""Mass enumeration of integer solutions, band filters, statistics, histograms.

For each scale generator Q the solutions are the divisors x of (M*Q)**2 with
2 <= x < M*Q and x matching y = (M*Q)**2/x in parity.  Angle comparisons are
exact (reduced ratios, cross-multiplication); floating point enters only in
histogram binning and display columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, TextIO

from .factor import GeneratorSolution, Triple, angle_fraction, solve_integer
from .ntheory import divisors_from_factors, factorize
from .sexagesimal import BASE, IrregularError, regular_power

BAND_FULL = "full"
BAND_PI6_PI4 = "pi6_pi4"
BAND_P322 = "p322"

# closed angle band between the tablet's extreme rows: arctan(28/45) .. arctan(119/120)
_P322_LOW = (28, 45)
_P322_HIGH = (119, 120)


@dataclass(frozen=True, slots=True)
class SurveyRecord:
    solution: GeneratorSolution
    angle: tuple[int, int]  # reduced (a, b)
    primitive: Triple
    in_pi6_pi4: bool
    in_p322: bool

    @property
    def triple(self) -> Triple:
        return self.solution.triple


@dataclass(frozen=True, slots=True)
class SurveyStats:
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


def _record(sol: GeneratorSolution) -> SurveyRecord:
    t = sol.triple
    g = gcd(t.a, t.b)  # divides d too, since d**2 = a**2 + b**2
    a, b = t.a // g, t.b // g
    return SurveyRecord(
        sol,
        (a, b),
        Triple(a, b, t.d // g),
        _in_pi6_pi4(t.a, t.b),
        _in_p322(t.a, t.b),
    )


def q_set(q_values: Iterable[int], m: int = 12) -> list[int]:
    """The scale generators sorted and deduplicated; ValueError on bad input."""
    qs = sorted(set(q_values))
    if not qs:
        raise ValueError("empty Q set")
    if m < 1 or qs[0] < 1:
        raise ValueError(f"M and Q must be >= 1, got M={m} and Q={qs[0]}")
    return qs


def _solutions(qs: Iterable[int], m: int) -> Iterator[tuple[int, int, int]]:
    """(q, x, y) for every solution over the checked scale generators, in (Q, x) order."""
    for q in qs:
        b = m * q
        bsq = b * b
        for x in divisors_from_factors({p: 2 * e for p, e in factorize(b).items()}):
            if x >= b:
                break  # divisors ascend
            y = bsq // x
            if x >= 2 and not (y - x) % 2:
                yield q, x, y


def _sides(qs: Iterable[int], m: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(q, x, y, a, b, d) for every solution, each checked to be a right triangle."""
    for q, x, y in _solutions(qs, m):
        a, b, d = (y - x) // 2, m * q, (y + x) // 2
        if a * a + b * b != d * d:
            raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
        yield q, x, y, a, b, d


def enumerate_solutions(q_values: Iterable[int], m: int = 12) -> list[SurveyRecord]:
    """All solutions for the given scale generators, ordered by (Q, x)."""
    return [_record(solve_integer(x, q, m)) for q, x, _ in _solutions(q_set(q_values, m), m)]


def count_stats(q_values: Iterable[int], m: int = 12) -> SurveyStats:
    """stats(enumerate_solutions(q_values, m)), counted without building records."""
    return _tally((a, b) for _, _, _, a, b, _ in _sides(q_set(q_values, m), m))


def band_filter(records: Iterable[SurveyRecord], band: str = BAND_FULL) -> list[SurveyRecord]:
    keep = _band_test(band)
    return [r for r in records if keep(*r.angle)]


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


def stats(records: Iterable[SurveyRecord]) -> SurveyStats:
    """Survey counts over built records; the bands depend only on the reduced angle."""
    return _tally(r.angle for r in records)


def p322_selection(records: Iterable[SurveyRecord]) -> list[Triple]:
    """Triples in the tablet band that are primitive or 60 times a primitive.

    Applied to the tablet's own Q set this keeps one representative of each
    of the fifteen carved angle classes and rejects the lone sixteenth class
    (the one reducing to (175, 288, 337)).  Output in descending angle order.
    """
    kept = []
    for r in records:
        if not r.in_p322:
            continue
        t = r.triple
        if t == r.primitive or t == r.primitive.scaled(60):
            kept.append(t)
    kept.sort(key=angle_fraction, reverse=True)
    return kept


def rejected_p322_classes(records: Iterable[SurveyRecord]) -> list[Triple]:
    """Angle classes in (pi/6, pi/4) that the tablet selection leaves out."""
    records = list(records)
    selected = {angle_fraction(t) for t in p322_selection(records)}
    out: dict[tuple[int, int], Triple] = {}
    for r in records:
        if r.in_pi6_pi4 and Fraction(*r.angle) not in selected:
            out.setdefault(r.angle, r.primitive)
    return [out[a] for a in sorted(out)]


def theta_degrees(a: int, b: int) -> float:
    """Display-only angle in degrees of the legs (a, b)."""
    return math.degrees(math.atan2(a, b))


# each bin costs one list slot, one (low, high, count) tuple and one CSV line
_MAX_BINS = 10**6


@dataclass(frozen=True, slots=True)
class Histogram:
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


def histogram(records: Iterable[SurveyRecord], bin_width_deg: float = 1.0) -> Histogram:
    """Counts of records by angle over contiguous [low, high) bins spanning (0, 90)."""
    return _histogram((theta_degrees(r.triple.a, r.triple.b) for r in records), bin_width_deg)


def _histogram(thetas: Iterable[float], bin_width_deg: float) -> Histogram:
    """Counts of the angles (degrees) over contiguous [low, high) bins spanning (0, 90)."""
    nbins = bin_count(bin_width_deg)
    counts = [0] * nbins
    for theta in thetas:
        counts[min(int(theta // bin_width_deg), nbins - 1)] += 1
    bins = tuple(
        (i * bin_width_deg, (i + 1) * bin_width_deg, counts[i]) for i in range(nbins)
    )
    return Histogram(bin_width_deg, bins)


CSV_HEADER = (
    "Q,x,y,a,b,d,fourth_coefficient,fourth_shift,"
    "primitive_a,primitive_b,primitive_d,theta_deg"
)


def _csv_row(q, x, y, a, b, d, coeff, shift, pa, pb, pd, theta: float) -> str:
    return f"{q},{x},{y},{a},{b},{d},{coeff},{shift},{pa},{pb},{pd},{theta:.12f}\n"


def write_records_csv(records: Iterable[SurveyRecord], fp: TextIO) -> None:
    """Record export; the fourth-column cells are blank when the ratio has no
    finite base-60 form (irregular Q)."""
    fp.write(CSV_HEADER + "\n")
    for r in records:
        s, t, p = r.solution, r.triple, r.primitive
        coeff, shift = (s.fourth.coefficient, s.fourth.shift) if s.fourth else ("", "")
        theta = theta_degrees(t.a, t.b)
        fp.write(_csv_row(s.q, s.x, s.y, t.a, t.b, t.d, coeff, shift, p.a, p.b, p.d, theta))


def export(
    q_values: Iterable[int],
    m: int,
    band: str,
    fp: TextIO | None,
    bin_width_deg: float | None,
) -> Histogram | None:
    """write_records_csv to fp (unless None) and return the histogram (unless the width
    is None) of band_filter(enumerate_solutions(q_values, m), band), in one pass over
    the divisor stream that builds no record, so memory does not grow with the Q range."""
    qs = q_set(q_values, m)
    keep = _band_test(band)

    def thetas() -> Iterator[float]:
        if fp is not None:
            fp.write(CSV_HEADER + "\n")
        for q, x, y, a, b, d in _sides(qs, m):
            if not keep(a, b):
                continue
            theta = theta_degrees(a, b)
            if fp is not None:
                g = gcd(a, b)  # divides d too
                pa, pb = a // g, b // g
                try:  # (pa/pb)**2 is a**2/b**2 in lowest terms, so the minimal shift is the same
                    shift = regular_power(pb * pb)
                    coeff = pa * pa * BASE**shift // (pb * pb)
                except IrregularError:
                    coeff = shift = ""
                fp.write(_csv_row(q, x, y, a, b, d, coeff, shift, pa, pb, d // g, theta))
            yield theta

    if bin_width_deg is None:
        for _ in thetas():
            pass
        return None
    return _histogram(thetas(), bin_width_deg)
