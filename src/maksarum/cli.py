"""Command-line front-end.

Subcommands: reconstruct (tablet verification), generate (integer Q-tables
and bounded generator tables), survey (mass statistics, CSV, histograms),
partitions (reciprocal and partition tables), pi (base-60 truncations),
giza (the pyramid-angle solution).  Numeric output defaults to paper-style
sexagesimal; --decimal switches to the decimal forms the source tables use.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from io import TextIOBase
from itertools import islice
from math import gcd

from . import circle, partitions, survey, tablet
from .factor import fourth_column, prime_to_60, reciprocal_square
from .sexagesimal import paper_text, parse as parse_number, regular_power, to_string

# cli is the program's entry module: what is loaded by now lives until exit.  Frozen
# objects move to the permanent generation, so neither a gen-2 collection during a long
# export nor the collections finalization runs at exit walk them again.  Library
# importers of maksarum keep their GC as it is, and main() leaves it alone, since each
# in-process call would pin that moment's cyclic garbage for good.
gc.freeze()


# rows per write of a csv or tsv table: one write per row is one write(2) per row when stdout
# is unbuffered or line-buffered.  Against one write per row, blocks of 4,096 rows raised the
# peak RSS of generate --bounded 22 by 0.35 MiB and blocks of 512 by less than 0.05 MiB
_BLOCK = 512


def _emit(header: list[str], rows: Iterable[list[str]] | _Rows, fmt: str, fp: TextIOBase,
          count: int | None = None) -> None:
    """csv and tsv write the rows as they come, in blocks of at most _BLOCK rows, or with count
    given, rows(start, stop) of count rows in runs from two processes (survey._two_processes).
    The table holds every row for its widths, and takes no count."""
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        fp.write(sep.join(header) + "\n")
        if count is None:
            _write_rows(rows, sep, fp.write)
        else:
            survey._two_processes(count, lambda i, j, write, acc: _write_rows(rows(i, j), sep, write), fp.write)
    else:
        rows = list(rows)
        widths = [
            max(len(header[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(header))
        ]
        fp.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            fp.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _write_rows(rows: Iterable[list[str]], sep: str, write) -> None:
    """Each row as one sep-joined line, through write in blocks of at most _BLOCK lines."""
    lines = (sep.join(row) + "\n" for row in rows)
    while block := "".join(islice(lines, _BLOCK)):
        write(block)


def _standard_stream(path: str) -> TextIOBase | None:
    """sys.stdout for "-", and sys.stdout or sys.stderr for a path that names the file it
    writes to, as /dev/stdout and /dev/stderr do; None for any other path."""
    if path == "-":
        return sys.stdout
    try:
        target = os.stat(path)
    except (OSError, ValueError):
        return None
    for stream in (sys.stdout, sys.stderr):
        try:
            if os.path.samestat(target, os.fstat(stream.fileno())):
                return stream
        except (OSError, ValueError):  # a stream with no file, such as a StringIO
            pass
    return None


@contextmanager
def _outputs(*paths: str | None):
    """One stream per path, all opened before the caller writes: None for None, the
    _standard_stream of "-" and of a path that names stdout's or stderr's own file, such
    as /dev/stdout (a second stream there would be flushed out of order, and emptying it
    would drop what it held), and the file at any other path, "" included.  Each file is
    opened without emptying it; if one cannot be opened, the files this call created are
    removed and the others keep their bytes.  Only then are the regular files emptied:
    /dev/null and pipes cannot be truncated."""
    with ExitStack() as stack:
        fps, opened, created = [], [], []
        for path in paths:
            fp = None if path is None else _standard_stream(path)
            if fp is None and path is not None:
                new = not os.path.exists(path)
                try:
                    fp = stack.enter_context(open(path, "a", encoding="utf-8"))
                except OSError:
                    stack.close()
                    for made in created:
                        os.remove(made)
                    raise
                opened.append(fp)
                if new:  # the file a dangling symlink points to, not the link
                    created.append(os.path.realpath(path))
            fps.append(fp)
        for fp in opened:
            if os.path.isfile(fp.name):
                fp.truncate(0)
        yield fps


def _decimal(text: str, what: str = "integer") -> int:
    """int(text) for an optional sign and the ASCII digits only; int() also reads "1_0" and "١٢"."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {what} {text!r}; expected decimal digits 0-9")
    return int(text)


def _width(text: str) -> float:
    """float(text) for ASCII text with no "_" or surrounding space; float() also reads "1_0" and "١"."""
    if text.isascii() and "_" not in text and text == text.strip():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"bad --bin-width {text!r}; expected a decimal number")


class _Decimal(argparse.Action):
    """Store _decimal(text); its ValueError leaves parse_args for main's one-line error."""

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, _decimal(text, option_string))


# --- reconstruct ------------------------------------------------------------

def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.show_errors and args.format != "table":
        raise ValueError("--show-errors applies only to --format table")
    reports = tablet.reconstruct_all()
    rows = tablet.corrected_table()
    with _outputs(args.out) as (fp,):
        if args.format in ("csv", "tsv"):
            header = "index fourth_coefficient fourth_shift a b d Q error_kind raw_a raw_d".split()
            _emit(header, (
                [str(v) for v in (row.index, *row.fourth, *row.triple, row.q)]
                + [row.error_kind, row.raw_a, row.raw_d]
                for row in rows
            ), args.format, fp)
        else:
            for rep, row in zip(reports, rows):
                t = row.triple
                status = "PASS" if rep.ok else "FAIL"
                fp.write(
                    f"row {rep.index:2d} {status}  a={t.a} b={t.b} d={t.d} Q={row.q} "
                    f"fourth={row.fourth}\n"
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

# a csv or tsv table is written from two processes from this many rows of paper-text cells,
# or of decimal cells, which cost a quarter to two fifths as much to make.  On a 2-vCPU
# guest two processes lost up to 858 paper rows and won from 1,039; they lost at 3,118 and
# 4,009 decimal rows of --Q, tied at 4,738 and won from 5,197 (BENCH_33.json)
_FORK_ROWS, _FORK_ROWS_DECIMAL = 1000, 5000

_Rows = Callable[[int, int], Iterator[list[str]]]


def _qtable_rows(q: int, m: int, decimal: bool) -> tuple[list[str], int, _Rows]:
    """Q's integer table: its header, its row count and rows(start, stop), its rows from start
    to stop.  Each fourth cell comes from (a, b, r) as in survey.export: blank when r, the
    part of b = m*Q prime to 60, does not divide a, else (a/g)**2 * mult at the shift of
    reciprocal_square(b/g); with a regular b, decimal cells are (a*60**p/b)**2 S-2p."""
    survey.q_set([q], m)  # checks M and Q
    b = m * q
    k, csq, us = survey._window(b)
    r = prime_to_60(b)
    cell = str if decimal else paper_text
    squared = decimal and r == 1
    if squared:  # b | 60**p
        p = regular_power(b)
        scale, tail = 60**p // b, f"S-{2 * p}"
    sep = "" if decimal else " "

    def rows(start: int, stop: int) -> Iterator[list[str]]:
        for _, x, y, a, _, d in survey._walk(q, b, k, csq, us[start:stop]):
            if a % r:
                fourth = ""
            elif squared:
                fourth = f"{(a * scale) ** 2}{tail}"
            else:
                g = gcd(a, b)
                shift, mult = reciprocal_square(b // g)
                fourth = f"{cell((a // g) ** 2 * mult)}{sep}S-{shift}"
            yield [cell(c) for c in (x, y, b, a, d, a * a)] + [fourth]

    return ["x", "y", "b", "a", "d", "a2", "fourth"], len(us), rows


def _bounded_rows(k: int, m: int, x_range, decimal: bool) -> tuple[list[str], int, _Rows]:
    """As _qtable_rows for the pairs within k fractional digits; places count from 1 at the
    table's first row, wherever rows starts."""
    # each pair is (x, y) / 60**k for an integer solution (x, y, a, b, d) at Q = 60**k
    q, b, kk, csq, us = survey._bounded_window(m, k, x_range)  # checks M, K and the range

    def rows(start: int, stop: int) -> Iterator[list[str]]:
        sides = enumerate(survey._walk(q, b, kk, csq, us[start:stop]), start + 1)
        if not decimal:
            return ([str(place), paper_text(x, k), paper_text(y, k), paper_text(a, k), paper_text(d, k)]
                    for place, (_, x, y, a, _, d) in sides)
        return ([str(place), str(b // g), str(d // g), str(a // g), f"{(a // g) ** 2 / (b // g) ** 2:.15g}"]
                for place, (_, _, _, a, b, d) in sides
                for g in [gcd(a, b)])  # divides d too

    header = ["place", "b", "d", "a", "ratio"] if decimal else ["place", "X", "Y", "A", "D"]
    return header, len(us), rows


def cmd_generate(args: argparse.Namespace) -> int:
    if args.q is not None:
        if args.xmin is not None or args.xmax is not None:
            raise ValueError("--Xmin and --Xmax apply only to --bounded")
        header, count, rows = _qtable_rows(args.q, args.m, args.decimal)
    else:
        if args.bounded < 0:
            raise ValueError(f"--bounded K must be >= 0, got {args.bounded}")
        x_range = None
        if args.xmin is not None or args.xmax is not None:
            lo = parse_number(args.xmin).value if args.xmin is not None else 0
            hi = parse_number(args.xmax).value if args.xmax is not None else args.m
            x_range = (lo, hi)
        header, count, rows = _bounded_rows(args.bounded, args.m, x_range, args.decimal)
    least = _FORK_ROWS_DECIMAL if args.decimal else _FORK_ROWS
    forked = args.format != "table" and count >= least and survey._forkable()
    with _outputs(args.out) as (fp,):
        _emit(header, rows if forked else rows(0, count), args.format, fp, count if forked else None)
    return 0


# --- survey -----------------------------------------------------------------

def _parse_q_selector(args: argparse.Namespace) -> Sequence[int]:
    if args.q is not None:
        return [args.q]
    if args.q_range is not None:
        lo, _, hi = args.q_range.partition(":")
        try:
            return range(_decimal(lo, "LOW"), _decimal(hi, "HIGH") + 1)
        except ValueError:
            raise ValueError(f"bad --Q-range {args.q_range!r}; expected LOW:HIGH") from None
    return tablet.p322_q_set()


def _quotient(num: int, den: int, digits: int) -> str:
    return f"{num / den:.{digits}f}" if den else "n/a"


def cmd_survey(args: argparse.Namespace) -> int:
    # reject ignored options and a bad width before any work or output; "" is a path
    exporting = args.out is not None or args.histogram_out is not None
    if not (args.report or exporting):
        raise ValueError("survey needs --report, --out or --histogram-out")
    if args.band != survey.BAND_FULL and not exporting:
        raise ValueError("--band applies only to --out and --histogram-out")
    files = [os.path.realpath(path) for path in (args.out, args.histogram_out) if path not in (None, "-")]
    # a hard link has a path of its own: only the two files' inodes show that it is one file
    if len(files) == 2 and (files[0] == files[1] or all(map(os.path.exists, files)) and os.path.samefile(*files)):
        raise ValueError(f"--out {args.out} and --histogram-out {args.histogram_out} are one file")
    if args.bin_width is not None and args.histogram_out is None:
        raise ValueError("--bin-width applies only to --histogram-out")
    width = 1.0 if args.bin_width is None else _width(args.bin_width)
    survey.bin_count(width)
    qs = survey.q_set(_parse_q_selector(args), m=args.m)
    with _outputs(args.out, args.histogram_out) as (out, hist_out):  # a bad path prints no report
        if args.report:
            s = survey.count_stats(qs, m=args.m)
            print(f"{s.total} {s.pi6_pi4} {s.p322} / {s.distinct_total} {s.distinct_pi6_pi4} {s.distinct_p322}")
            print(f"ratio pi6_pi4: {s.pi6_pi4}/{s.total} = {_quotient(s.pi6_pi4, s.total, 7)}")
            print(f"ratio p322:    {s.p322}/{s.total} = {_quotient(s.p322, s.total, 7)}")
            print(f"distinct pi6_pi4: {s.distinct_pi6_pi4}/{s.distinct_total} = {_quotient(s.distinct_pi6_pi4, s.distinct_total, 5)}")
            print(f"distinct p322:    {s.distinct_p322}/{s.distinct_total} = {_quotient(s.distinct_p322, s.distinct_total, 5)}")
        hist = survey.export(qs, args.m, args.band, out, None if hist_out is None else width)
        if hist is not None:  # after the whole CSV: stdout gets the CSV first
            hist.write_csv(hist_out)
    return 0


# --- partitions -------------------------------------------------------------

def cmd_partitions(args: argparse.Namespace) -> int:
    m = 12 if args.m is None else args.m
    if m < 1:  # not GeneratorPair's check again: a bad M is named before the --standard refusal
        raise ValueError(f"M must be >= 1, got {m}")
    if args.standard and args.m is not None:  # the thirty reciprocal pairs read no M
        raise ValueError("--M applies only to plain partitions and --scaled")
    if args.standard or args.scaled:
        from fractions import Fraction

        header = ["n", "nbar"] if args.standard else ["X", "Y"]
        # n * nbar = 60, so (n * M/12) * (nbar * M/5) = M**2
        u, v = Fraction(m, 12), Fraction(m, 5)
        pairs = partitions.standard_table()
        if args.scaled:
            pairs = [partitions.scale_to_partition(pair, u, v, m) for pair in pairs]
        rows = [[to_string(pair[0]), to_string(pair[1])] for pair in pairs]  # (n, nbar) or (X, Y)
    else:
        header = ["place", "X", "Y", "A", "D"]
        rows = [["none" if place is None else str(place)] + [to_string(c) for c in (pair.x, pair.y, a, d)]
                for place, pair, a, d in partitions.partition_table(m)]
    with _outputs(args.out) as (fp,):
        _emit(header, rows, args.format, fp)
    return 0


# --- pi / giza --------------------------------------------------------------

def cmd_pi(args: argparse.Namespace) -> int:
    if not 1 <= args.digits <= 8:
        raise ValueError(f"--digits K must be in 1..8, got {args.digits}")
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


def cmd_giza(args: argparse.Namespace) -> int:
    from fractions import Fraction
    from math import atan2, degrees

    x = Fraction(729, 125)  # 05.~49~55~12, found at four fractional digits
    pair = partitions.GeneratorPair(x, Fraction(144) / x, 12)
    q, t = partitions.pair_solution(pair)
    f = fourth_column(t)
    print(f"X = {to_string(pair.x)}  Y = {to_string(pair.y)}")
    print(f"Q = {q} = {paper_text(int(q))}")
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
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("generate", help="emit integer Q-tables or bounded generator tables")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--Q", dest="q", action=_Decimal, help="integer-solutions table for this Q")
    sel.add_argument("--bounded", action=_Decimal, metavar="K",
                     help="generator table bounded to K fractional sexagesits")
    p.add_argument("--M", dest="m", action=_Decimal, default=12)
    p.add_argument("--Xmin", dest="xmin", default=None, help="lower bound on X (sexagesimal text)")
    p.add_argument("--Xmax", dest="xmax", default=None, help="upper bound on X (sexagesimal text)")
    p.add_argument("--decimal", action="store_true", help="decimal columns instead of sexagesimal")
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("survey", help="statistics over scale-generator ranges")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--Q", dest="q", action=_Decimal)
    sel.add_argument("--Q-range", dest="q_range", metavar="LOW:HIGH")
    sel.add_argument("--Q-set", dest="q_set", choices=["p322"])
    p.add_argument("--M", dest="m", action=_Decimal, default=12)
    p.add_argument("--band", choices=list(survey._BANDS), default=survey.BAND_FULL,
                   help="rows kept in --out and --histogram-out; --report prints all three bands")
    p.add_argument("--report", action="store_true", help="print the count and ratio lines")
    p.add_argument("--out", default=None, help="write the record CSV here")
    p.add_argument("--histogram-out", default=None, help="write an angle histogram CSV here")
    p.add_argument("--bin-width", default=None,
                   help="histogram bin width in degrees (default 1)")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("partitions", help="reciprocal table and partition tables")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--standard", action="store_true", help="the thirty reciprocal pairs")
    kind.add_argument("--scaled", action="store_true", help="the pairs rescaled to product M^2")
    p.add_argument("--M", dest="m", action=_Decimal, default=None, help="bundling factor (default 12)")
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("pi", help="base-60 truncations of pi")
    p.add_argument("--digits", action=_Decimal, default=8, metavar="K",
                   help="deepest truncation to print (1..8)")
    p.add_argument("--extras", action="store_true", help="also print 3/pi and sqrt(pi/3)")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("giza", help="the pyramid-angle solution from the bounded search")
    p.set_defaults(func=cmd_giza)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
