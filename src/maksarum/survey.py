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


def enumerate_solutions(q_values: Iterable[int], m: int = 12) -> list[SurveyRecord]:
    """All solutions for the given scale generators, ordered by (Q, x)."""
    return [_record(solve_integer(x, q, m)) for q, x, _ in _solutions(q_set(q_values, m), m)]


def count_stats(q_values: Iterable[int], m: int = 12) -> SurveyStats:
    """stats(enumerate_solutions(q_values, m)), counted without building records."""
    qs = q_set(q_values, m)

    def sides():
        for q, x, y in _solutions(qs, m):
            a, b, d = (y - x) // 2, m * q, (y + x) // 2
            if a * a + b * b != d * d:
                raise ValueError(f"not a right triangle: {a}^2 + {b}^2 != {d}^2")
            yield a, b

    return _tally(sides())


def band_filter(records: Iterable[SurveyRecord], band: str = BAND_FULL) -> list[SurveyRecord]:
    if band == BAND_FULL:
        return list(records)
    if band == BAND_PI6_PI4:
        return [r for r in records if r.in_pi6_pi4]
    if band == BAND_P322:
        return [r for r in records if r.in_p322]
    raise ValueError(f"unknown band {band!r}")


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


def theta_degrees(t: Triple) -> float:
    """Display-only angle in degrees."""
    return math.degrees(math.atan2(t.a, t.b))


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


def histogram(records: Iterable[SurveyRecord], bin_width_deg: float = 1.0) -> Histogram:
    """Counts of records by angle over contiguous [low, high) bins spanning (0, 90)."""
    if not (bin_width_deg > 0 and math.isfinite(bin_width_deg)):
        raise ValueError(f"bin width must be positive and finite, got {bin_width_deg}")
    if 90.0 / bin_width_deg > _MAX_BINS:
        raise ValueError(f"bin width {bin_width_deg} gives too many bins")
    nbins = math.ceil(90.0 / bin_width_deg)
    counts = [0] * nbins
    for r in records:
        theta = theta_degrees(r.triple)
        idx = min(int(theta // bin_width_deg), nbins - 1)
        counts[idx] += 1
    bins = tuple(
        (i * bin_width_deg, (i + 1) * bin_width_deg, counts[i]) for i in range(nbins)
    )
    return Histogram(bin_width_deg, bins)


CSV_HEADER = (
    "Q,x,y,a,b,d,fourth_coefficient,fourth_shift,"
    "primitive_a,primitive_b,primitive_d,theta_deg"
)


def write_records_csv(records: Iterable[SurveyRecord], fp: TextIO) -> None:
    """Record export; the fourth-column cells are blank when the ratio has no
    finite base-60 form (irregular Q)."""
    fp.write(CSV_HEADER + "\n")
    for r in records:
        s = r.solution
        t = s.triple
        p = r.primitive
        coeff, shift = (s.fourth.coefficient, s.fourth.shift) if s.fourth else ("", "")
        fp.write(
            f"{s.q},{s.x},{s.y},{t.a},{t.b},{t.d},{coeff},{shift},"
            f"{p.a},{p.b},{p.d},{theta_degrees(t):.12f}\n"
        )
