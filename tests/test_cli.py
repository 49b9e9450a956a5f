import io
from fractions import Fraction
from pathlib import Path

import pytest

from maksarum import cli, partitions, survey
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
def test_qtable_goldens(capsys, q):
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
    # generate streams its rows into --out: every check comes before the file opens
    ["generate", "--Q", "0", "--out", "t.tsv"],
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
