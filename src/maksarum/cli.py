"""Command-line front-end.

Subcommands: reconstruct (tablet verification), generate (integer Q-tables
and bounded generator tables), survey (mass statistics, CSV, histograms),
partitions (reciprocal and partition tables), pi (base-60 truncations),
giza (the pyramid-angle solution).  Numeric output defaults to paper-style
sexagesimal; --decimal switches to the decimal forms the source tables use.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Sequence, TextIO

from . import circle, partitions, survey, tablet
from .factor import fourth_column
from .sexagesimal import IrregularError, Sexagesimal, parse as parse_number, regular_power, to_string


def _emit(header: list[str], rows: list[list[str]], fmt: str, fp: TextIO) -> None:
    if fmt == "csv":
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(row) + "\n")
    elif fmt == "tsv":
        fp.write("\t".join(header) + "\n")
        for row in rows:
            fp.write("\t".join(row) + "\n")
    else:
        widths = [
            max(len(header[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(header))
        ]
        fp.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            fp.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


@contextmanager
def _output(path: str | None):
    """The file at path, or stdout for None and "-"; a file is closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp


def _ratio_15g(num: int, den: int) -> str:
    return f"{num / den:.15g}"


# --- reconstruct ------------------------------------------------------------

def cmd_reconstruct(args: argparse.Namespace) -> int:
    reports = tablet.reconstruct_all()
    with _output(args.out) as fp:
        if args.format in ("csv", "tsv"):
            text = tablet.to_tsv()
            fp.write(text.replace("\t", ",") if args.format == "csv" else text)
            return 0 if all(r.ok for r in reports) else 1
        for rep in reports:
            row = tablet.corrected_table()[rep.index - 1]
            t = row.triple
            f = row.fourth
            status = "PASS" if rep.ok else "FAIL"
            fp.write(
                f"row {rep.index:2d} {status}  a={t.a} b={t.b} d={t.d} Q={row.q} "
                f"fourth={f}\n"
            )
            if not rep.ok:
                for check in rep.checks:
                    if not check.ok:
                        fp.write(f"        {check.field}: expected {check.expected}, got {check.got}\n")
        if args.show_errors:
            for model in tablet.explain_errors():
                mark = "reproduced" if model.reproduced else "NOT reproduced"
                fp.write(f"row {model.index:2d} error [{model.kind}] {mark}: {model.description}\n")
        return 0 if all(r.ok for r in reports) else 1


# --- generate ---------------------------------------------------------------

def _qtable_fourth(sol, decimal: bool) -> str:
    if not decimal:
        # minimal-shift form, e.g. 59~00~15 S-3
        if sol.fourth is None:
            return ""
        return f"{to_string(Sexagesimal(sol.fourth.coefficient))} S-{sol.fourth.shift}"
    # decimal tables carry the squared-mantissa convention: shift 2m with b | 60**m
    try:
        m = regular_power(sol.b)
    except IrregularError:
        m = None
    if m is not None:
        atil = sol.triple.a * 60**m // sol.b
        return f"{atil * atil}S-{2 * m}"
    return "" if sol.fourth is None else str(sol.fourth)


def _qtable_rows(q: int, m: int, decimal: bool) -> tuple[list[str], list[list[str]]]:
    header = ["x", "y", "b", "a", "d", "a2", "fourth"]
    rows = []
    for rec in survey.enumerate_solutions([q], m=m):
        sol = rec.solution
        t = sol.triple
        cells = [sol.x, sol.y, t.b, t.a, t.d, t.a * t.a]
        if decimal:
            out = [str(c) for c in cells]
        else:
            out = [to_string(Sexagesimal(c)) for c in cells]
        out.append(_qtable_fourth(sol, decimal))
        rows.append(out)
    return header, rows


def _bounded_rows(k: int, m: int, x_range, decimal: bool) -> tuple[list[str], list[list[str]]]:
    pairs = partitions.enumerate_bounded(m, k, x_range)
    if decimal:
        header = ["place", "b", "d", "a", "ratio"]
        rows = []
        for place, pair in enumerate(pairs, 1):
            _, t = partitions.pair_solution(pair)
            rows.append(
                [str(place), str(t.b), str(t.d), str(t.a), _ratio_15g(t.a * t.a, t.b * t.b)]
            )
        return header, rows
    header = ["place", "X", "Y", "A", "D"]
    rows = []
    for place, pair in enumerate(pairs, 1):
        a_side = (pair.y - pair.x) / 2
        d_side = (pair.y + pair.x) / 2
        rows.append([str(place)] + [to_string(v) for v in (pair.x, pair.y, a_side, d_side)])
    return header, rows


def cmd_generate(args: argparse.Namespace) -> int:
    if args.q is not None:
        header, rows = _qtable_rows(args.q, args.m, args.decimal)
    else:
        x_range = None
        if args.xmin is not None or args.xmax is not None:
            lo = parse_number(args.xmin).value if args.xmin is not None else Fraction(0)
            hi = parse_number(args.xmax).value if args.xmax is not None else Fraction(args.m)
            x_range = (lo, hi)
        header, rows = _bounded_rows(args.bounded, args.m, x_range, args.decimal)
    with _output(args.out) as fp:
        _emit(header, rows, args.format, fp)
    return 0


# --- survey -----------------------------------------------------------------

def _parse_q_selector(args: argparse.Namespace) -> list[int]:
    if args.q is not None:
        return [args.q]
    if args.q_range is not None:
        lo, _, hi = args.q_range.partition(":")
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ValueError(f"bad --Q-range {args.q_range!r}; expected LOW:HIGH") from None
    return tablet.p322_q_set()


def _quotient(num: int, den: int, digits: int) -> str:
    return f"{num / den:.{digits}f}" if den else "n/a"


def cmd_survey(args: argparse.Namespace) -> int:
    qs = survey.q_set(_parse_q_selector(args), m=args.m)
    if args.histogram_out:
        survey.bin_count(args.bin_width)  # reject a bad width before any work or output
    if args.report:
        s = survey.count_stats(qs, m=args.m)
        print(f"{s.total} {s.pi6_pi4} {s.p322} / {s.distinct_total} {s.distinct_pi6_pi4} {s.distinct_p322}")
        print(f"ratio pi6_pi4: {s.pi6_pi4}/{s.total} = {_quotient(s.pi6_pi4, s.total, 7)}")
        print(f"ratio p322:    {s.p322}/{s.total} = {_quotient(s.p322, s.total, 7)}")
        print(f"distinct pi6_pi4: {s.distinct_pi6_pi4}/{s.distinct_total} = {_quotient(s.distinct_pi6_pi4, s.distinct_total, 5)}")
        print(f"distinct p322:    {s.distinct_p322}/{s.distinct_total} = {_quotient(s.distinct_p322, s.distinct_total, 5)}")
    if not (args.out or args.histogram_out):
        return 0
    width = args.bin_width if args.histogram_out else None
    with _output(args.out) if args.out else nullcontext() as fp:
        hist = survey.export(qs, args.m, args.band, fp, width)
    if hist is not None:  # after the CSV is closed: stdout gets the CSV first
        with _output(args.histogram_out) as fp:
            hist.write_csv(fp)
    return 0


# --- partitions -------------------------------------------------------------

def cmd_partitions(args: argparse.Namespace) -> int:
    if args.standard or args.scaled:
        header = ["n", "nbar"] if args.standard else ["X", "Y"]
        # n * nbar = 60, so (n * M/12) * (nbar * M/5) = M**2
        u, v = Fraction(args.m, 12), Fraction(args.m, 5)
        rows = []
        for pair in partitions.standard_table():
            if args.standard:
                rows.append([to_string(pair.n), to_string(pair.nbar)])
            else:
                scaled = partitions.scale_to_partition(pair, u, v, args.m)
                rows.append([to_string(scaled.x), to_string(scaled.y)])
    else:
        header = ["place", "X", "Y", "A", "D"]
        rows = []
        for place, pair, a_side, d_side in partitions.partition_table(args.m):
            rows.append(
                [str(place) if place is not None else "none"]
                + [to_string(v) for v in (pair.x, pair.y, a_side, d_side)]
            )
    with _output(args.out) as fp:
        _emit(header, rows, args.format, fp)
    return 0


# --- pi / giza --------------------------------------------------------------

def cmd_pi(args: argparse.Namespace) -> int:
    for k in range(1, args.digits + 1):
        approx = circle.pi_digits(k)
        frac = approx.fractional_part
        print(
            f"k={k}: {to_string(approx.digits)}  |  {to_string(approx.digits, 'colon')}"
            f"  |  3 + {frac.numerator}/{frac.denominator}  |  error {approx.error:.3E}"
        )
    if args.extras:
        ratio = circle.area_correction_factor()
        print(f"3/pi = {ratio}  ~  {to_string(circle.area_correction_sexagesimal())}")
        ring, trunc = circle.outer_ring_ratio()
        print(f"sqrt(pi/3) = {ring}  ~  {to_string(trunc)}")
    return 0


GIZA_GENERATOR = Fraction(729, 125)  # 05.~49~55~12, found at four fractional digits


def cmd_giza(args: argparse.Namespace) -> int:
    from math import atan2, degrees

    pair = partitions.GeneratorPair(GIZA_GENERATOR, Fraction(144) / GIZA_GENERATOR, 12)
    q, t = partitions.pair_solution(pair)
    f = fourth_column(t)
    print(f"X = {to_string(pair.x)}  Y = {to_string(pair.y)}")
    print(f"Q = {q} = {to_string(Sexagesimal(int(q)))}")
    print(f"triple: a={t.a} b={t.b} d={t.d}")
    print(f"fourth = {f}")
    print(f"theta = {degrees(atan2(t.a, t.b)):.12f} deg")
    print(f"apothem-base angle = {degrees(atan2(t.b, t.a)):.14f} deg")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="maksarum",
        description="Exact base-60 toolkit for bundling-factor Pythagorean triples "
        "and the Plimpton 322 tablet.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="verify the fifteen tablet rows")
    p.add_argument("--show-errors", action="store_true", help="include the scribe-error models")
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("generate", help="emit integer Q-tables or bounded generator tables")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--Q", dest="q", type=int, help="integer-solutions table for this Q")
    sel.add_argument("--bounded", type=int, metavar="K",
                     help="generator table bounded to K fractional sexagesits")
    p.add_argument("--M", dest="m", type=int, default=12)
    p.add_argument("--Xmin", dest="xmin", default=None, help="lower bound on X (sexagesimal text)")
    p.add_argument("--Xmax", dest="xmax", default=None, help="upper bound on X (sexagesimal text)")
    p.add_argument("--decimal", action="store_true", help="decimal columns instead of sexagesimal")
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("survey", help="statistics over scale-generator ranges")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--Q", dest="q", type=int)
    sel.add_argument("--Q-range", dest="q_range", metavar="LOW:HIGH")
    sel.add_argument("--Q-set", dest="q_set", choices=["p322"])
    p.add_argument("--M", dest="m", type=int, default=12)
    p.add_argument("--band", choices=[survey.BAND_FULL, survey.BAND_PI6_PI4, survey.BAND_P322],
                   default=survey.BAND_FULL)
    p.add_argument("--report", action="store_true", help="print the count and ratio lines")
    p.add_argument("--out", default=None, help="write the record CSV here")
    p.add_argument("--histogram-out", default=None, help="write an angle histogram CSV here")
    p.add_argument("--bin-width", type=float, default=1.0, help="histogram bin width in degrees")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("partitions", help="reciprocal table and partition tables")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--standard", action="store_true", help="the thirty reciprocal pairs")
    kind.add_argument("--scaled", action="store_true", help="the pairs rescaled to product M^2")
    p.add_argument("--M", dest="m", type=int, default=12)
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("pi", help="base-60 truncations of pi")
    p.add_argument("--digits", type=int, choices=range(1, 9), default=8, metavar="K",
                   help="deepest truncation to print (1..8)")
    p.add_argument("--extras", action="store_true", help="also print 3/pi and sqrt(pi/3)")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("giza", help="the pyramid-angle solution from the bounded search")
    p.set_defaults(func=cmd_giza)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"maksarum: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad input, SexagesimalError and GeneratorError included
        print(f"maksarum: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
