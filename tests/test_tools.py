"""The scripts under tools/ still run against the package's private helpers."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def test_crossover_prints_one_line_per_case(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("crossover", TOOLS / "crossover.py")
    crossover = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crossover)
    monkeypatch.setattr(crossover, "MS", (12,))
    monkeypatch.setattr(crossover, "HIS", (200,))
    crossover.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"M", "hi", "class_s", "class_us_per_M_hi", "stream_us_per_Q", "crossover"}
    assert (row["M"], row["hi"]) == (12, 200)
    assert row["class_s"] > 0 and row["stream_us_per_Q"] > 0 and row["crossover"] > 0
