"""Fast self-tests of the benchmark harness: oracles, checks, metrics and BENCHMARK.json."""

import json
import re

import pytest

import oracle
import run
import workloads

GOLDEN = run.GOLDEN
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_survey_oracle_reproduces_the_paper_line():
    assert oracle.survey(1, 1125).report_lines()[0] == "50781 3265 3017 / 10378 382 332"


def test_bounded_oracle_matches_the_59_row_golden():
    pairs = oracle.bounded_pairs(3)
    assert len(pairs) == 59
    assert all(p.x * p.y == 144 for p in pairs)
    for decimal, name in ((False, "bounded_3.tsv"), (True, "bounded_3_decimal.tsv")):
        text = (GOLDEN / name).read_text()
        assert workloads._bounded_check(pairs, 12, decimal)(text, {}) == 59


@pytest.mark.parametrize("corrupt", [
    lambda s: s.replace("11.~54", "11.~55", 1),  # one digit of one table cell
    lambda s: s[: s.rindex("\n", 0, -1) + 1],  # the last row dropped
])
def test_checks_reject_corrupted_output(corrupt):
    text = (GOLDEN / "bounded_3.tsv").read_text()
    with pytest.raises(workloads.Mismatch):
        workloads._bounded_check(oracle.bounded_pairs(3), 12, False)(corrupt(text), {})
    report = oracle.survey(1, 30)
    lines = "\n".join(report.report_lines()) + "\n"
    with pytest.raises(workloads.Mismatch):
        workloads._report_check(report)(lines.replace(str(report.counts[1]), "7", 1), {})


def test_corrupted_output_raises_fail_ratio(tmp_path):
    good = workloads._paper_tables(GOLDEN)[-1]  # giza, with its oracle check
    assert good.argv == ("giza",)
    bad = workloads.Invocation(good.argv, lambda stdout, files: good.check(stdout.replace("1", "7"), files))
    launcher = run.Launcher(dict(run.os.environ, PYTHONPATH=str(run.SRC)))
    try:
        batch = [run.spawn(launcher, inv, tmp_path, False, {}) for inv in (good, bad)]
    finally:
        launcher.close()
    assert [r.ok for r in batch] == [True, False]
    assert run.end_to_end([batch])["ok_ratio"] == 0.5
    assert 0 < batch[0].setup_s < batch[0].wall_s and batch[0].rss_mb > 1
    assert all(r.ref_s > 0 for r in batch)


def test_times_are_scaled_by_the_reference_start():
    slow = [run.Result(4.0, 0.2, 2 * run.NOMINAL_START_S, 0.1, 30.0, True, 10, 0)]
    fast = [run.Result(2.0, 0.1, run.NOMINAL_START_S, 0.1, 30.0, True, 10, 0)]
    assert run.end_to_end([slow]) == run.end_to_end([fast])
    assert run.end_to_end([fast]) == run.end_to_end([fast], scaled=False)
    assert run.end_to_end([slow], scaled=False)["wall_s"] == 4.0


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("survey.enumerate_solutions", 1.0, 9.0, 0, 5),
        ("ntheory.divisors", 2.0, 3.0, 1, 15),
        ("factor.solve_integer", 4.0, 6.0, 1, 0),
    ]
    result = run.Result(12.0, 1.0, 0.06, 0.5, 20.0, True, 5, 0, spans)
    m = run.layers([result])
    assert m["survey.enumerate_solutions.self_s"] == 5.0
    assert m["cli.self_s"] == 2.0
    assert m["survey.records"] == 5 and m["survey.kept_ratio"] == 5 / 15
    assert m["factor.solve_integer.calls"] == 1 and m["ntheory.divisors.s"] == 1.0


def test_benchmark_json_matches_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    metrics = bench["end_to_end"] + bench["per_layer"]
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_workloads_are_seeded_and_never_use_jobs(tmp_path):
    argv = [inv.argv for name in workloads.WORKLOADS for inv in workloads.build(name, 1, GOLDEN, tmp_path)]
    assert not any("--jobs" in a for a in argv)
    order = [[inv.argv for inv in workloads.build("paper_tables", s, GOLDEN, tmp_path)] for s in (1, 1, 2)]
    assert order[0] == order[1] != order[2]


def test_run_refuses_a_directory_without_the_package(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        run.check_checkout()
