"""The benchmark's workloads: the CLI invocations each one runs, and their checks.

A workload is a batch of maksarum CLI invocations built from a seed.  Each
invocation carries a check that compares its output with an oracle from
oracle.py or with a golden file, and returns the number of output items
(survey solutions, bounded pairs, table lines).  A check raises Mismatch
when the output is wrong.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sympy

import oracle

WORKLOADS = ("survey_report", "survey_export", "bounded_search", "paper_tables")

SURVEY_WIDTH = 1500  # Q values per survey invocation
SURVEY_STARTS = 16  # the seed starts the window at one of Q = 1..16
BOUNDED_K = 22
# Bundling factors whose m**2 * 60**(2K) have the same number of divisors,
# (4K+5)(2K+3)(2K+1), so every seed enumerates as many candidates.
BOUNDED_M = (12, 20)
TABLET_Q = (5, 6, 10, 20, 30, 50, 80, 200, 225, 288, 400, 540, 1125)


class Mismatch(Exception):
    """An invocation's output differs from what its oracle or golden expects."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], int]  # (stdout, files by role) -> items
    files: dict[str, str] = field(default_factory=dict)  # role -> path it writes


def build(name: str, seed: int, golden: Path, tmp: Path) -> list[Invocation]:
    """The invocations of one batch of workload `name`; the same seed gives the same batch."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("survey_report", "survey_export"):
        lo = 1 + rng.randrange(SURVEY_STARTS)
        hi = lo + SURVEY_WIDTH - 1
        expected = oracle.survey(lo, hi)
        argv = ("survey", "--Q-range", f"{lo}:{hi}")
        if name == "survey_report":
            return [Invocation(argv + ("--report",), _report_check(expected))]
        files = {"records": str(tmp / "records.csv"), "histogram": str(tmp / "histogram.csv")}
        argv += ("--out", files["records"], "--histogram-out", files["histogram"])
        return [Invocation(argv, _export_check(expected), files)]
    if name == "bounded_search":
        m = rng.choice(BOUNDED_M)
        pairs = oracle.bounded_pairs(BOUNDED_K, m)
        argv = ("generate", "--bounded", str(BOUNDED_K), "--M", str(m), "--format", "tsv")
        return [
            Invocation(argv, _bounded_check(pairs, m, decimal=False)),
            Invocation(argv + ("--decimal",), _bounded_check(pairs, m, decimal=True)),
        ]
    if name == "paper_tables":
        batch = _paper_tables(golden)
        rng.shuffle(batch)
        return batch
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# --- survey -----------------------------------------------------------------

def _report_check(expected: oracle.Survey):
    lines = expected.report_lines()

    def check(stdout: str, files: dict[str, bytes]) -> int:
        _expect(stdout.splitlines() == lines, f"report differs from {lines[0]!r}")
        return expected.counts[0]

    return check


def _export_check(expected: oracle.Survey):
    def check(stdout: str, files: dict[str, bytes]) -> int:
        _expect(stdout == "", "survey with --out printed to stdout")
        records = files["records"].decode("ascii").splitlines()
        _expect(records[0].startswith("Q,x,y,a,b,d,"), "bad record CSV header")
        _expect(len(records) - 1 == len(expected.rows), "record count differs from the oracle total")
        bins = [0] * 90
        for line, want in zip(records[1:], expected.rows):
            cells = line.split(",")
            _expect(len(cells) == 12, f"bad record {line!r}")
            _expect(tuple(map(int, cells[:6])) == want, f"record {line!r}, expected {want}")
            _check_record_tail(want, cells[6:])
            theta = math.degrees(math.atan2(want[3], want[4]))
            bins[min(int(theta), 89)] += 1
        hist = files["histogram"].decode("ascii").splitlines()
        _expect(hist[0] == "bin_low_deg,bin_high_deg,count", "bad histogram header")
        counts = [int(line.rsplit(",", 1)[1]) for line in hist[1:]]
        _expect(sum(counts) == len(expected.rows), "histogram total differs from the oracle total")
        _expect(counts == bins, "histogram bins differ from the oracle")
        return len(expected.rows)

    return check


def _check_record_tail(row: tuple[int, ...], cells: list[str]) -> None:
    """fourth_coefficient, fourth_shift, primitive_a/b/d, theta_deg of one record."""
    _, _, _, a, b, d = row
    coeff, shift, pa, pb, pd, theta = cells
    g = math.gcd(a, b, d)
    _expect((int(pa), int(pb), int(pd)) == (a // g, b // g, d // g), f"primitive of {row}")
    den = b * b // math.gcd(a * a, b * b)
    if coeff == "":
        _expect(not _is_regular(den), f"fourth column of {row} left blank")
    else:
        c, s = int(coeff), int(shift)
        _expect(c * b * b == a * a * 60**s, f"fourth column of {row}")
        _expect(s == 0 or (a * a * 60 ** (s - 1)) % (b * b), f"fourth shift of {row} not minimal")
    _expect(abs(float(theta) - math.degrees(math.atan2(a, b))) < 1e-9, f"theta of {row}")


def _is_regular(n: int) -> bool:
    """True when n has no prime factor other than 2, 3 and 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


# --- bounded search -----------------------------------------------------------

def _bounded_check(pairs: list[oracle.BoundedPair], m: int, decimal: bool):
    header = "place\tb\td\ta\tratio" if decimal else "place\tX\tY\tA\tD"

    def check(stdout: str, files: dict[str, bytes]) -> int:
        lines = stdout.splitlines()
        _expect(lines[:1] == [header], f"bad header {lines[:1]}")
        _expect(len(lines) - 1 == len(pairs), f"{len(lines) - 1} pairs, oracle has {len(pairs)}")
        for place, (line, pair) in enumerate(zip(lines[1:], pairs), 1):
            cells = line.split("\t")
            _expect(len(cells) == 5 and cells[0] == str(place), f"bad row {line!r}")
            if decimal:
                b, d, a = map(int, cells[1:4])
                _expect((a, b, d) == oracle.primitive_triple(pair.a_side, m), f"row {line!r}")
                ratio = Fraction(a * a, b * b)
                _expect(abs(Fraction(cells[4]) - ratio) <= ratio * Fraction(1, 10**14), f"ratio {line!r}")
            else:
                x, y, a_side, d_side = map(oracle.parse_paper, cells[1:])
                _expect(x * y == m * m, f"X*Y != {m}**2 in {line!r}")
                _expect((x, y, a_side, d_side) == (pair.x, pair.y, pair.a_side, pair.d_side), f"row {line!r}")
        return len(pairs)

    return check


# --- paper tables -------------------------------------------------------------

def _paper_tables(golden: Path) -> list[Invocation]:
    def gen(*args: str) -> tuple[str, ...]:
        return ("generate",) + args + ("--format", "tsv")

    batch = [Invocation(("reconstruct", "--format", "tsv"), _golden_check(golden / "tablet.tsv"))]
    for q in TABLET_Q:
        batch.append(Invocation(gen("--Q", str(q), "--decimal"), _golden_check(golden / f"qtable_{q}.tsv")))
    # The 59-row golden is the complete K = 3 search; the paper's table lists 51.
    pairs = oracle.bounded_pairs(3)
    for decimal, golden_name in ((False, "bounded_3.tsv"), (True, "bounded_3_decimal.tsv")):
        both = _both(_golden_check(golden / golden_name), _bounded_check(pairs, 12, decimal))
        batch.append(Invocation(gen("--bounded", "3", *(("--decimal",) if decimal else ())), both))
    batch.append(Invocation(("reconstruct", "--show-errors"), _show_errors_check(golden / "tablet.tsv")))
    batch.append(Invocation(("pi", "--extras"), _pi_check))
    batch.append(Invocation(("giza",), _giza_check))
    return batch


def _golden_check(path: Path):
    want = path.read_text(encoding="utf-8")

    def check(stdout: str, files: dict[str, bytes]) -> int:
        _expect(stdout == want, f"output differs from {path.name}")
        return stdout.count("\n")

    return check


def _both(first, second):
    def check(stdout: str, files: dict[str, bytes]) -> int:
        first(stdout, files)
        return second(stdout, files)

    return check


def _show_errors_check(tablet_tsv: Path):
    rows = [line.split("\t") for line in tablet_tsv.read_text(encoding="utf-8").splitlines()[1:]]
    want = [
        f"row {int(r[0]):2d} PASS  a={r[3]} b={r[4]} d={r[5]} Q={r[6]} fourth={r[1]}S-{r[2]}"
        for r in rows
    ]
    for r in rows:
        a, b, d, q = (int(v) for v in r[3:7])
        _expect(a * a + b * b == d * d and b == 12 * q, f"tablet golden row {r[0]}")
        _expect(int(r[1]) * b * b == a * a * 60 ** int(r[2]), f"tablet golden fourth {r[0]}")

    def check(stdout: str, files: dict[str, bytes]) -> int:
        lines = stdout.splitlines()
        _expect(lines[:15] == want, "row lines differ from the tablet golden")
        errors = lines[15:]
        _expect(len(errors) == 4, f"{len(errors)} scribe-error lines, expected 4")
        for line in errors:
            _expect("error [" in line and "] reproduced:" in line, f"error model not reproduced: {line!r}")
        return len(lines)

    return check


def _pi_check(stdout: str, files: dict[str, bytes]) -> int:
    lines = stdout.splitlines()
    _expect(len(lines) == 10, f"{len(lines)} lines from pi --extras, expected 10")
    for k, line in enumerate(lines[:8], 1):
        head, colon, frac, err = line.split("  |  ")
        paper = head.removeprefix(f"k={k}: ")
        _expect(paper != head, f"bad line {line!r}")
        want = oracle.pi_truncation(k)
        _expect(oracle.parse_paper(paper) == want, f"truncation k={k}: {paper}")
        _expect(oracle.parse_paper(colon.replace(";", ".~").replace(":", "~")) == want, f"colon k={k}")
        _expect(frac == f"3 + {want - 3}", f"fraction k={k}: {frac}")
        got_err = float(err.removeprefix("error "))
        _expect(abs(got_err - oracle.pi_error(k)) <= 1e-3 * oracle.pi_error(k), f"error k={k}")
    for line, expr in zip(lines[8:], (3 / sympy.pi, sympy.sqrt(sympy.pi / 3))):
        _, _, rest = line.partition(" = ")
        dec, _, sexa = rest.partition("  ~  ")
        _expect(oracle.decimal_close(dec, expr, 25), f"bad decimal in {line!r}")
        _expect(abs(sympy.Rational(oracle.parse_paper(sexa)) - expr) < sympy.Rational(1, 60**5), f"{line!r}")
    return len(lines)


def _giza_check(stdout: str, files: dict[str, bytes]) -> int:
    lines = stdout.splitlines()
    _expect(len(lines) == 6, f"{len(lines)} lines from giza, expected 6")
    x_text, y_text = lines[0].removeprefix("X = ").split("  Y = ")
    x, y = oracle.parse_paper(x_text), oracle.parse_paper(y_text)
    _expect(x == Fraction(729, 125) and x * y == 144, f"bad generator pair {lines[0]!r}")
    q_text, _, q_paper = lines[1].removeprefix("Q = ").partition(" = ")
    a, b, d = (int(v.split("=")[1]) for v in lines[2].removeprefix("triple: ").split())
    _expect(a * a + b * b == d * d and b == 12 * int(q_text), f"bad triple {lines[2]!r}")
    _expect(oracle.parse_paper(q_paper) == int(q_text), f"bad Q {lines[1]!r}")
    _expect(Fraction(a, b) == (y - x) / 2 / 12 and math.gcd(a, b) == 1, f"triple off the pair {lines[2]!r}")
    coeff, shift = lines[3].removeprefix("fourth = ").split("S-")
    _expect(int(coeff) * b * b == a * a * 60 ** int(shift), f"bad fourth {lines[3]!r}")
    theta = float(lines[4].removeprefix("theta = ").removesuffix(" deg"))
    _expect(abs(theta - math.degrees(math.atan2(a, b))) < 1e-9, f"bad theta {lines[4]!r}")
    return len(lines)


# A short invocation run once before measuring, to fill bytecode and page caches.
WARM_UP = Invocation(("giza",), _giza_check)
