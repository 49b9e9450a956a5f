import io
from pathlib import Path

import pytest

from maksarum import survey
from maksarum.cli import main
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
    with pytest.raises(SystemExit):
        main(["pi", "--digits", "9"])


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
])
def test_bad_input_is_one_line_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("maksarum: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # bad input writes no output file


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "generate", "--Q", "225", "--decimal", "--format", "csv")
    _, second = run(capsys, "generate", "--Q", "225", "--decimal", "--format", "csv")
    assert first == second
