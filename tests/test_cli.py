import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from maksarum import cli, partitions, survey, tablet
from maksarum.cli import main
from maksarum.partitions import pair_solution
from maksarum.sexagesimal import parse

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_reconstruct_passes(capsys):
    code, out = run(capsys, "reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert all(" PASS " in line for line in lines)
    assert lines[0].startswith("row  1 PASS")
    assert "fourth=212415S-3" in lines[0]


def test_reconstruct_show_errors(capsys):
    code, out = run(capsys, "reconstruct", "--show-errors")
    assert code == 0
    assert "(02~41)^2 - (02~00)^2 = 03~12~01" in out
    assert "07~12~01" in out
    assert "three repairs" in out


def test_reconstruct_tsv_golden(capsys):
    code, out = run(capsys, "reconstruct", "--format", "tsv")
    assert code == 0
    assert out == (GOLDEN / "tablet.tsv").read_text()


def test_reconstruct_csv_matches_schema(capsys):
    _, out = run(capsys, "reconstruct", "--format", "csv")
    header = out.splitlines()[0]
    assert header == "index,fourth_coefficient,fourth_shift,a,b,d,Q,error_kind,raw_a,raw_d"


def test_reconstruct_writes_out_file(tmp_path, capsys):
    path = tmp_path / "tablet.csv"
    code, _ = run(capsys, "reconstruct", "--format", "csv", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 16
    assert lines[1].startswith("1,212415,3,119,120,169,10,none,")


def test_survey_band_scoped_csv(tmp_path, capsys):
    path = tmp_path / "band.csv"
    run(capsys, "survey", "--Q-set", "p322", "--band", "p322", "--out", str(path))
    assert len(path.read_text().splitlines()) == 52  # header + the 51 in-band rows


@pytest.mark.parametrize("q", [5, 6, 10, 20, 30, 50, 80, 200, 225, 288, 400, 540, 1125])
def test_qtable_goldens(monkeypatch, capsys, q):
    def refuse(*args, **kwargs):
        raise AssertionError("the rows were held as a list of solutions")

    monkeypatch.setattr(survey, "enumerate_solutions", refuse)  # rows stream from the walk
    code, out = run(capsys, "generate", "--Q", str(q), "--decimal", "--format", "tsv")
    assert code == 0
    assert out == (GOLDEN / f"qtable_{q}.tsv").read_text()


def test_bounded_goldens(capsys):
    _, out = run(capsys, "generate", "--bounded", "3", "--format", "tsv")
    assert out == (GOLDEN / "bounded_3.tsv").read_text()
    _, out = run(capsys, "generate", "--bounded", "3", "--decimal", "--format", "tsv")
    assert out == (GOLDEN / "bounded_3_decimal.tsv").read_text()


def test_generate_sexagesimal_mode(capsys):
    _, out = run(capsys, "generate", "--Q", "10", "--format", "tsv")
    lines = out.splitlines()
    assert lines[1].split("\t")[:3] == ["02", "02~00~00", "02~00"]
    row1 = next(line for line in lines if line.startswith("50\t"))
    assert row1.split("\t")[-1] == "59~00~15 S-3"


@pytest.mark.parametrize("argv", [
    ["generate", "--bounded", "3"], ["generate", "--Q", "5", "--decimal"], ["partitions", "--standard"],
])
def test_table_lines_up_the_tsv_cells(capsys, argv):
    # the default --format: the tsv cells, header included, each column at one offset
    _, tsv = run(capsys, *argv, "--format", "tsv")
    code, table = run(capsys, *argv)
    assert code == 0
    lines = table.splitlines()
    starts = [cell.start() for cell in re.finditer(r"\S+", lines[0])]
    assert len(lines) == len(tsv.splitlines()) > 1
    for line, want in zip(lines, tsv.splitlines()):
        cells = list(re.finditer(r"\S+", line))
        assert [cell.start() for cell in cells] == starts, line
        assert [cell.group() for cell in cells] == want.split("\t")


@pytest.mark.parametrize("decimal", [False, True])
def test_irregular_q_fourth_cells(capsys, decimal):
    # b = 84 = 12 * 7: a cell is blank exactly when the reduced a**2/b**2 keeps a prime above 5
    _, out = run(capsys, "generate", "--Q", "7", *(["--decimal"] if decimal else []), "--format", "tsv")
    _, sides = run(capsys, "generate", "--Q", "7", "--decimal", "--format", "tsv")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 13 and sum(row[-1] == "" for row in rows) == 9
    for row, side in zip(rows, sides.splitlines()[1:]):
        x, _, b, a = map(int, side.split("\t")[:4])
        cell = row[-1]
        irregular = max(sympy.factorint(Fraction(a * a, b * b).denominator), default=1) > 5
        assert (cell == "") == irregular, side
        if cell:
            mantissa, shift = cell.split("S-")
            coeff, shift = int(mantissa) if decimal else _read_base60(mantissa.rstrip()), int(shift)
            assert coeff * b * b == a * a * 60**shift
            assert shift == 0 or a * a * 60 ** (shift - 1) % (b * b)  # and no lesser shift would do
        if x == 42:
            assert cell == ("2025S-2" if decimal else "33~45 S-2")


def test_generate_bounded_window(capsys):
    _, out = run(capsys, "generate", "--bounded", "3", "--Xmin", "05", "--Xmax", "06.~40",
                 "--format", "tsv")
    assert len(out.splitlines()) == 20  # header + 19 pairs


def _read_base60(cell: str) -> Fraction:
    """A paper-style cell read back with Fraction arithmetic, no package code."""
    int_part, _, frac_part = cell.partition(".~")
    frac_groups = frac_part.split("~") if frac_part else []
    value = Fraction(0)
    for g in int_part.split("~") + frac_groups:
        assert len(g) == 2 and g.isdigit() and int(g) < 60, cell
        value = value * 60 + int(g)
    return value / 60 ** len(frac_groups)


@pytest.mark.parametrize("m, k", [(1, 2), (7, 3), (13, 5), (20, 4), (60, 2)])
def test_bounded_rows_are_the_pair_fractions(monkeypatch, capsys, m, k):
    # reference: each pair's Fraction sides, and pair_solution's reduced triple
    pairs = partitions.enumerate_bounded(m, k)
    sides = [[p.x, p.y, (p.y - p.x) / 2, (p.y + p.x) / 2] for p in pairs]
    triples = [pair_solution(p)[1] for p in pairs]
    assert pairs

    def refuse(*args, **kwargs):
        raise AssertionError("a row went through pair_solution or GeneratorPair")

    monkeypatch.setattr("maksarum.partitions.pair_solution", refuse)
    monkeypatch.setattr("maksarum.partitions.GeneratorPair", refuse)
    argv = ["generate", "--bounded", str(k), "--M", str(m), "--format", "tsv"]
    _, out = run(capsys, *argv)
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(1, len(pairs) + 1)]
    assert [[_read_base60(c) for c in row[1:]] for row in rows] == sides
    _, out = run(capsys, *argv, "--decimal")
    rows = [line.split("\t")[1:4] for line in out.splitlines()[1:]]
    assert rows == [[str(t.b), str(t.d), str(t.a)] for t in triples]


@pytest.mark.parametrize("m, fmt, rows", [("12", "table", 2021), ("20", "tsv", 1997)])
def test_bounded_22_cells_parse_back_to_their_pairs(capsys, m, fmt, rows):
    _, out = run(capsys, "generate", "--bounded", "22", "--M", m, "--format", fmt)
    lines = out.splitlines()[1:]
    assert len(lines) == rows
    for line in lines:
        x, y, a, d = sides = [parse(cell).value for cell in line.split()[1:]]
        assert (x * y, a, d) == (int(m) ** 2, (y - x) / 2, (y + x) / 2)
        assert all(60**22 % v.denominator == 0 for v in sides)  # at most 22 fractional digits


@pytest.mark.parametrize("argv, expected", [
    (["--bounded", "1", "--Xmin", "11.~59", "--Xmax", "11.~59"], []),  # no pair in the window
    (["--bounded", "0"], [["1", "06", "24", "09", "15"], ["2", "08", "18", "05", "13"]]),
])
def test_generate_bounded_edge_windows(capsys, argv, expected):
    code, out = run(capsys, "generate", *argv, "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "place\tX\tY\tA\tD"
    assert [line.split("\t") for line in lines[1:]] == expected


def test_generate_general_m(capsys):
    _, out = run(capsys, "generate", "--Q", "10", "--M", "1", "--decimal", "--format", "tsv")
    lines = out.splitlines()[1:]
    assert lines[0].split("\t")[:5] == ["2", "50", "10", "24", "26"]


def test_survey_report_lines(capsys):
    _, out = run(capsys, "survey", "--Q-set", "p322", "--report")
    assert out.splitlines()[0] == "614 52 51 / 193 16 15"
    assert "52/614 = 0.0846906" in out
    assert "15/193 = 0.07772" in out


P322_REPORT = [
    "614 52 51 / 193 16 15",
    "ratio pi6_pi4: 52/614 = 0.0846906",
    "ratio p322:    51/614 = 0.0830619",
    "distinct pi6_pi4: 16/193 = 0.08290",
    "distinct p322:    15/193 = 0.07772",
]


def test_survey_report_builds_no_records(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("--report built records")

    monkeypatch.setattr("maksarum.survey.enumerate_solutions", refuse)
    code, out = run(capsys, "survey", "--Q-set", "p322", "--report")
    assert code == 0
    assert out.splitlines() == P322_REPORT
    assert main(["survey", "--Q", "0"]) == 2
    assert main(["survey", "--M", "0", "--Q", "3"]) == 2


def test_survey_bad_bin_width_builds_no_records(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("records built before the bin width was checked")

    monkeypatch.setattr("maksarum.survey.enumerate_solutions", refuse)
    monkeypatch.chdir(tmp_path)
    argv = ["survey", "--Q-range", "1:3000", "--histogram-out", "h.csv", "--bin-width", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "maksarum: bin width must be positive and finite, got 0.0\n"
    assert list(tmp_path.iterdir()) == []


def test_survey_export_builds_no_records(tmp_path, monkeypatch, capsys):
    kept = survey.band_filter(survey.enumerate_solutions(range(1, 41)), survey.BAND_P322)
    csv_text, hist_text = io.StringIO(), io.StringIO()
    survey.write_records_csv(kept, csv_text)
    survey.histogram(kept).write_csv(hist_text)

    def refuse(*args, **kwargs):
        raise AssertionError("the export built records")

    monkeypatch.setattr("maksarum.survey.enumerate_solutions", refuse)
    monkeypatch.chdir(tmp_path)
    argv = ["survey", "--Q-range", "1:40", "--band", "p322"]
    code, out = run(capsys, *argv, "--out", "A", "--histogram-out", "H")
    assert (code, out) == (0, "")
    assert (tmp_path / "A").read_text() == csv_text.getvalue()
    assert (tmp_path / "H").read_text() == hist_text.getvalue()
    code, out = run(capsys, *argv, "--out", "-", "--histogram-out", "-")
    assert (code, out) == (0, csv_text.getvalue() + hist_text.getvalue())


def _refuse_divisor_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked the divisors")

    monkeypatch.setattr("maksarum.survey._sides", refuse)


def _refuse(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"called {name}")

    monkeypatch.setattr(f"maksarum.survey.{name}", refuse)


def test_survey_wide_range_report_walks_no_divisors(monkeypatch, capsys):
    _refuse_divisor_walk(monkeypatch)
    _refuse(monkeypatch, "_set_legs")  # a wide range takes its L from the sieve
    code, out = run(capsys, "survey", "--Q-range", "1:1500", "--report")
    assert code == 0
    assert out.splitlines()[0] == "71983 4495 4143 / 14267 504 437"


@pytest.mark.parametrize("selector,report", [
    (["--Q", "1125"], [
        "73 5 5 / 73 5 5",
        "ratio pi6_pi4: 5/73 = 0.0684932",
        "ratio p322:    5/73 = 0.0684932",
        "distinct pi6_pi4: 5/73 = 0.06849",
        "distinct p322:    5/73 = 0.06849",
    ]),
    (["--Q-range", "1000:1100"], [
        "5544 327 299 / 3439 130 111",
        "ratio pi6_pi4: 327/5544 = 0.0589827",
        "ratio p322:    299/5544 = 0.0539322",
        "distinct pi6_pi4: 130/3439 = 0.03780",
        "distinct p322:    111/3439 = 0.03228",
    ]),
    (["--Q-set", "p322"], P322_REPORT),
    (["--M", "1000003", "--Q-range", "1:2"], [  # a short range at a large M
        "1 0 0 / 1 0 0",
        "ratio pi6_pi4: 0/1 = 0.0000000",
        "ratio p322:    0/1 = 0.0000000",
        "distinct pi6_pi4: 0/1 = 0.00000",
        "distinct p322:    0/1 = 0.00000",
    ]),
])
def test_survey_other_q_sets_report_without_the_divisor_walk(monkeypatch, capsys, selector, report):
    # from the divisors L of the Q (factored per Q, or sieved for a range),
    # never from the divisors of (M*Q)**2
    _refuse_divisor_walk(monkeypatch)
    code, out = run(capsys, "survey", *selector, "--report")
    assert code == 0
    assert out.splitlines() == report


@pytest.mark.parametrize("selector,first", [
    ("1000000000:1000000001", "1691 36 34 / 1687 35 33"),
    ("1000000000:1000000000", "598 11 11 / 598 11 11"),
])
def test_survey_narrow_range_at_large_high_factors_each_q(monkeypatch, capsys, selector, first):
    # a sieve up to HIGH = 10**9 would take minutes; factoring two Q takes milliseconds
    _refuse_divisor_walk(monkeypatch)
    _refuse(monkeypatch, "_range_legs")  # the sieve
    code, out = run(capsys, "survey", "--Q-range", selector, "--report")
    assert code == 0
    assert out.splitlines()[0] == first


def test_survey_q_range_stays_a_range(monkeypatch):
    seen = []

    def record(qs, m):
        seen.append(qs)
        return survey.SurveyStats(0, 0, 0, 0, 0, 0)

    monkeypatch.setattr("maksarum.survey.count_stats", record)
    assert main(["survey", "--Q-range", "1:1000000", "--report"]) == 0
    assert seen == [range(1, 1000001)]  # a list of the same Q would not compare equal


@pytest.mark.parametrize("m", ["1", "2"])
def test_survey_report_with_no_solutions(capsys, m):
    code, out = run(capsys, "survey", "--M", m, "--Q", "1", "--report")
    assert code == 0
    assert out.splitlines() == [
        "0 0 0 / 0 0 0",
        "ratio pi6_pi4: 0/0 = n/a",
        "ratio p322:    0/0 = n/a",
        "distinct pi6_pi4: 0/0 = n/a",
        "distinct p322:    0/0 = n/a",
    ]


def test_survey_csv_and_histogram(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    hist_path = tmp_path / "hist.csv"
    code, _ = run(capsys, "survey", "--Q", "10", "--out", str(csv_path),
                  "--histogram-out", str(hist_path), "--bin-width", "5")
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 23
    assert lines[0].startswith("Q,x,y,a,b,d,")
    hist = hist_path.read_text().splitlines()
    assert hist[0] == "bin_low_deg,bin_high_deg,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 22


@pytest.mark.parametrize("golden, argv", [
    ("survey_1_40", ["--Q-range", "1:40", "--bin-width", "2.5"]),
    ("survey_m77_1_30_pi6_pi4", ["--M", "77", "--Q-range", "1:30", "--band", "pi6_pi4"]),
])
def test_survey_export_goldens(tmp_path, capsys, golden, argv):
    # byte-for-byte: an oracle independent of write_records_csv and of export
    csv_path, hist_path = tmp_path / "records.csv", tmp_path / "hist.csv"
    code, out = run(capsys, "survey", *argv, "--out", str(csv_path), "--histogram-out", str(hist_path))
    assert (code, out) == (0, "")
    assert csv_path.read_bytes() == (GOLDEN / f"{golden}.csv").read_bytes()
    assert hist_path.read_bytes() == (GOLDEN / f"{golden}_hist.csv").read_bytes()


def test_survey_full_range_report_and_histogram(tmp_path, capsys):
    hist_path = tmp_path / "full.csv"
    code, out = run(capsys, "survey", "--Q-range", "1:1125", "--report",
                    "--histogram-out", str(hist_path))
    assert code == 0
    assert out.splitlines()[0] == "50781 3265 3017 / 10378 382 332"
    hist = hist_path.read_text().splitlines()
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 50781


def test_partitions_outputs(capsys):
    _, out = run(capsys, "partitions", "--standard", "--format", "tsv")
    lines = out.splitlines()
    assert len(lines) == 31
    assert lines[1] == "02\t30"
    _, out = run(capsys, "partitions", "--scaled", "--format", "tsv")
    assert "05\t28.~48" in out
    _, out = run(capsys, "partitions", "--format", "tsv")
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[1].startswith("1\t05\t28.~48\t11.~54\t16.~54")
    assert lines[-1].startswith("none\t06.~45\t21.~20")
    for m in (3, 12, 60):
        code, out = run(capsys, "partitions", "--scaled", "--M", str(m), "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(rows) == 30
        assert all(parse(x).value * parse(y).value == m * m for x, y in rows), m


def test_pi_output(capsys):
    _, out = run(capsys, "pi", "--digits", "8")
    lines = out.splitlines()
    assert len(lines) == 8
    assert "03.~08~29~44~00~47~25~53~07" in lines[-1]
    assert "03;08:29:44:00:47:25:53:07" in lines[-1]
    assert "3+23782128645187/167961600000000" in lines[-1].replace(" ", "")


def test_pi_extras(capsys):
    _, out = run(capsys, "pi", "--digits", "1", "--extras")
    assert "00.~57~17~44~48~22" in out
    assert "01.~01~23~58~34~08" in out


def test_giza_output(capsys):
    _, out = run(capsys, "giza")
    assert "X = 05.~49~55~12" in out
    assert "Q = 20250 = 05~37~30" in out
    assert "a=190951 b=243000 d=309049" in out
    assert "51.83950380749" in out


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["survey", "--Q", "5", "--Q-range", "1:2"])


@pytest.mark.parametrize("argv", [
    ["survey", "--Q", "0"],
    ["generate", "--Q", "0"],
    ["generate", "--bounded", "-1"],
    ["generate", "--bounded", "2", "--Xmin", "zz"],
    ["survey", "--M", "0", "--Q", "3"],
    ["survey", "--Q-range", "1:5", "--bin-width", "0", "--histogram-out", "F"],
    ["survey", "--Q-range", "1-5", "--report"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "inf"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "nan"],
    ["generate", "--bounded", "3", "--M", "-12"],
    ["generate", "--bounded", "3", "--M", "0"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "1e-300"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "1e-9"],
    ["survey", "--Q", "5", "--out", "A", "--histogram-out", "F", "--bin-width", "0"],
    ["generate", "--bounded", "2", "--Xmin", "3", "--Xmax", "1"],
    ["partitions", "--M", "0"],
    ["partitions", "--M", "-12"],
    ["partitions", "--scaled", "--M", "0"],
    ["generate", "--Q", "5", "--Xmin", "03"],
    ["generate", "--Q", "5", "--Xmax", "06"],
    ["survey", "--Q", "5"],
    ["survey", "--Q", "5", "--band", "p322"],
    ["survey", "--Q", "5", "--band", "pi6_pi4", "--report"],
    ["survey", "--Q", "5", "--report", "--bin-width", "0"],
    ["survey", "--Q-range", "1:5", "--report", "--bin-width", "nan"],
    ["survey", "--Q", "5", "--out", "F", "--histogram-out", "F"],
    ["survey", "--Q", "5", "--out", "F", "--histogram-out", "./F"],
    # options the command would ignore
    ["survey", "--Q", "10", "--report", "--bin-width", "7"],
    ["survey", "--Q", "10", "--out", "o.csv", "--bin-width", "7"],
    ["reconstruct", "--format", "csv", "--show-errors"],
    ["reconstruct", "--format", "tsv", "--show-errors", "--out", "t.tsv"],
    ["partitions", "--standard", "--M", "5"],
    ["partitions", "--standard", "--M", "12"],
    # integers are ASCII decimal digits: int() alone reads "1_0" as 10 and "\u0663" as 3
    ["survey", "--Q-range", "1_0:2_0", "--report"],
    ["survey", "--Q-range", "\u0663:\u0665", "--report"],
    ["survey", "--M", "\u0661\u0662", "--Q", "\u0665", "--report"],
    ["generate", "--Q", "1_0"],
    ["generate", "--bounded", "\u0663"],
    ["partitions", "--M", "\u0661\u0662"],
    ["pi", "--digits", "\u0661"],
    ["pi", "--digits", "0"],
    ["pi", "--digits", "9"],
    # a width is ASCII float text: argparse's float() would read "1_0" as 10 and "\u0661" as 1
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "abc"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "\u0661"],
    ["survey", "--Q", "5", "--histogram-out", "F", "--bin-width", "1_0"],
    # generate streams its rows into --out: every check comes before the file opens
    ["generate", "--Q", "0", "--out", "t.tsv"],
    ["generate", "--Q", "5", "--M", "0", "--format", "tsv", "--out", "t.tsv"],
    ["generate", "--bounded", "2", "--Xmin", "3", "--Xmax", "1", "--out", "t.tsv"],
    ["generate", "--bounded", "3", "--M", "0", "--out", "t.tsv"],
])
def test_bad_input_is_one_line_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any work or output
    assert err.startswith("maksarum: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # bad input writes no output file
    if argv == ["generate", "--bounded", "-1"]:  # the option, not the library's parameter
        assert err == "maksarum: --bounded K must be >= 0, got -1\n"
    if argv == ["pi", "--digits", "9"]:
        assert err == "maksarum: --digits K must be in 1..8, got 9\n"
    if argv[-1] in ("abc", "\u0661", "1_0") and argv[-2] == "--bin-width":
        assert err.startswith("maksarum: bad --bin-width ")


@pytest.mark.parametrize("text", [
    "0", "7", "+7", "-7", "007", "", "+", "-", "+-7", "--7", " 7", "7 ", "7\n", "1_0",
    "\u0663", "\u00b2", "\uff17", "1e3", "0x10", "7.0",
])
def test_decimal_takes_an_optional_sign_and_ascii_digits(text):
    if re.fullmatch(r"[+-]?[0-9]+", text):
        assert cli._decimal(text) == int(text)
    else:
        with pytest.raises(ValueError, match="expected decimal digits 0-9"):
            cli._decimal(text)


@pytest.mark.parametrize("out, hist", [("F", "missing/h.csv"), ("missing/F", "h.csv")])
def test_survey_opens_both_outputs_before_the_walk(tmp_path, monkeypatch, capsys, out, hist):
    _refuse(monkeypatch, "divisors_from_factors")
    monkeypatch.chdir(tmp_path)
    assert main(["survey", "--Q-range", "1:3", "--out", out, "--histogram-out", hist]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("maksarum: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # F, once created, is removed again


def test_survey_keeps_an_existing_out_when_the_histogram_cannot_open(tmp_path, monkeypatch, capsys):
    _refuse(monkeypatch, "divisors_from_factors")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "G").write_text("old contents\n")
    assert main(["survey", "--Q", "10", "--out", "G", "--histogram-out", "missing/h.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "maksarum: [Errno 2] No such file or directory: 'missing/h.csv'\n"
    assert (tmp_path / "G").read_text() == "old contents\n"


def test_survey_removes_the_file_it_created_not_a_link_to_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "L").symlink_to("target")  # dangling: --out L creates target
    assert main(["survey", "--Q", "10", "--out", "L", "--histogram-out", "missing/h.csv"]) == 1
    capsys.readouterr()
    assert os.readlink("L") == "target"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["L"]


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--format", "csv"],
    ["generate", "--Q", "10", "--format", "tsv"],
    ["partitions", "--scaled"],
    ["survey", "--Q", "10"],
])
def test_out_replaces_a_longer_file(tmp_path, capsys, argv):
    path = tmp_path / "F"
    path.write_text("x" * 100_000)
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main([*argv, "--out", "-"]) == 0
    assert path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("argv", [["reconstruct"], ["generate", "--Q", "10"], ["partitions"], ["survey", "--Q", "10"]])
def test_out_to_dev_null(capsys, argv):
    assert main([*argv, "--out", os.devnull]) == 0  # a file that cannot be truncated
    assert capsys.readouterr() == ("", "")


def test_survey_empty_out_is_a_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["survey", "--Q", "10", "--report", "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # opened before the report
    assert err == "maksarum: [Errno 2] No such file or directory: ''\n"


def test_reconstruct_prints_a_failed_check(monkeypatch, capsys):
    first, *rest = tablet._TABLE
    monkeypatch.setattr(tablet, "_TABLE", [first._replace(raw_a="02~00"), *rest])  # 02~00 is not 119
    code, out = run(capsys, "reconstruct")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "row  1 FAIL  a=119 b=120 d=169 Q=10 fourth=212415S-3"
    assert lines[1] == "        raw_matches: expected True, got False"
    assert len(lines) == 16 and all(" PASS " in line for line in lines[2:])


def test_broken_pipe_exits_0_quietly(monkeypatch, capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["generate", "--Q", "10", "--format", "tsv"]) == 0
    assert capsys.readouterr().err == ""


def test_survey_names_a_wrong_right_angle(tmp_path, monkeypatch, capsys, a_non_divisor):
    monkeypatch.chdir(tmp_path)
    assert main(["survey", "--Q", "5", "--out", "F"]) == 2
    _, err = capsys.readouterr()
    assert err == "maksarum: not a right triangle: 121^2 + 60^2 != 135^2\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_disk_is_one_line_exit_1(capsys, forks):
    assert main(["survey", "--Q-range", "1:1500", "--out", "/dev/full"]) == 1
    assert capsys.readouterr() == ("", "maksarum: [Errno 28] No space left on device\n")
    assert forks == []  # the first Qs' rows fill the write buffer before export would fork


def test_a_report_starts_no_process(monkeypatch, capsys, forks):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    assert main(["survey", "--Q-range", "1:1500", "--report"]) == 0
    assert survey.export(range(1, 1501), 12, survey.BAND_FULL, None, None) is None


# cli.main in a fresh interpreter with a second CPU whatever the machine has; stderr gets
# the number of forks and whether a child is left, running or unreaped
FORKED = """
import os, sys
from maksarum.cli import main
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child left"
except ChildProcessError:
    left = "no child left"
print(len(forks), "fork,", left, file=sys.stderr)
sys.exit(code)
"""


def _forked(*args, **kwargs):
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, **kwargs)


# the reader closes after the header, before export forks, or after 1 MiB, past the first
# Qs' 0.2 MB and so after the fork
@pytest.mark.parametrize("more, forked", [(0, 0), (1 << 20, 1)])
def test_a_reader_that_closes_early_ends_the_export_quietly(more, forked):
    proc = _forked("-c", FORKED, "survey", "--Q-range", "1:1500", "--out", "-",
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == (survey.CSV_HEADER + "\n").encode()
    assert len(proc.stdout.read(more)) == more
    proc.stdout.close()
    assert proc.communicate(timeout=60)[1] == f"{forked} fork, no child left\n".encode()  # no traceback
    assert proc.returncode == 0


def test_a_two_process_export_leaves_no_warning(tmp_path):
    # -X dev -W error: an unclosed pipe or temporary file warns, and so does a fork with threads
    # running (Python 3.12); a warning in a finalizer is printed, not raised, so read stderr
    argv = ["survey", "--Q-range", "1:1500", "--out", "r.csv", "--histogram-out", "h.csv"]
    proc = _forked("-X", "dev", "-W", "error", "-c", FORKED, *argv, cwd=tmp_path, stderr=subprocess.PIPE)
    assert proc.communicate(timeout=60)[1] == b"1 fork, no child left\n"
    assert proc.returncode == 0
    assert (tmp_path / "r.csv").stat().st_size > 0 and (tmp_path / "h.csv").stat().st_size > 0


@pytest.mark.parametrize("argv", [["generate", "--Q", "5"], ["reconstruct", "--format", "tsv"]])
def test_unwritable_out_is_one_line_exit_1(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1  # a directory
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"maksarum: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv, m", [
    (["partitions", "--M", "0"], 0),
    (["partitions", "--M", "-12"], -12),
    (["partitions", "--scaled", "--M", "0"], 0),
    (["generate", "--bounded", "3", "--M", "0"], 0),
    (["partitions", "--standard", "--M", "0"], 0),
    (["partitions", "--standard", "--M", "-12"], -12),
])
def test_bad_m_is_named(capsys, argv, m):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"maksarum: M must be >= 1, got {m}\n"


@pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
def test_emit_writes_each_row_before_the_next(fmt, sep):
    fp = io.StringIO()

    def rows():
        for i in range(3):
            assert fp.getvalue().count("\n") == 1 + i  # the header and every earlier row
            yield [str(i), "x"]

    cli._emit(["n", "v"], rows(), fmt, fp)
    assert fp.getvalue() == f"n{sep}v\n0{sep}x\n1{sep}x\n2{sep}x\n"


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "generate", "--Q", "225", "--decimal", "--format", "csv")
    _, second = run(capsys, "generate", "--Q", "225", "--decimal", "--format", "csv")
    assert first == second
