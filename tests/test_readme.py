"""README's facts, read from README.md itself and run against the package.

Every command in the CLI block exits 0 and shows the first line or the line count
its comment states; every "`maksarum ...` prints `...`" sentence holds; every
refusal under Errors exits 2 as README says; each Number formats row parses and
prints both ways; and each Library line equals the value its comment states.
"""

import ast
import io
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from maksarum import factor, sexagesimal, survey
from maksarum.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The text under `heading`, up to the next heading of any level."""
    return re.split(r"\n#{2,} ", README.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def fenced(text: str, lang: str) -> str:
    """The body of the first ```lang block in text."""
    return re.search(rf"```{lang}\n(.*?)```", text, re.S)[1]


def one_line(text: str) -> str:
    """text with each line break, and the indent after it, read as one space."""
    return re.sub(r"\n\s*", " ", text)


def commands(block: str) -> list[tuple[list[str], str]]:
    """(argv after `maksarum`, comment) for each command line of a sh block."""
    found = []
    for line in block.splitlines():
        if line.startswith("maksarum "):
            command, _, comment = line.partition("#")
            found.append((shlex.split(command)[1:], comment.strip()))
    return found


CLI_BLOCK = commands(fenced(section("## CLI"), "sh"))
REFUSALS = commands(fenced(section("### Errors"), "sh"))
PRINTS = re.findall(r"`(maksarum [^`]+)` prints `([^`]+)`", one_line(README))
USAGE_ERRORS = re.findall(r"`(maksarum [^`]+)`", one_line(section("### Errors").split("```", 1)[0]))


def test_readme_lists_what_this_file_checks():
    assert len(CLI_BLOCK) >= 15 and len(PRINTS) >= 3 and len(REFUSALS) >= 20 and len(USAGE_ERRORS) >= 3


@pytest.mark.parametrize("argv, comment", CLI_BLOCK, ids=[" ".join(argv) for argv, _ in CLI_BLOCK])
def test_cli_block_command(tmp_path, monkeypatch, capsys, argv, comment):
    monkeypatch.chdir(tmp_path)  # the survey line writes two files
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    if '"' in comment:  # a quoted output is the first line of stdout
        quoted = re.fullmatch(r'"(.*)"', comment)
        assert quoted and lines[0] == quoted[1]
    elif comment[:1].isdigit():  # N lines counts all of stdout; N rows or pairs leave out the header
        count = re.match(r"(\d+)[ -](lines|rows|pairs)\b", comment)
        assert count and len(lines) - (count[2] != "lines") == int(count[1])


@pytest.mark.parametrize("command, printed", PRINTS)
def test_prints_sentence(capsys, command, printed):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines()[0] == printed


@pytest.mark.parametrize("argv", [argv for argv, _ in REFUSALS], ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_refusal_is_one_line_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("maksarum: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_argparse_refusal_prints_usage(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: maksarum ") and err.count("\n") > 1


def test_number_formats_table():
    cells = [
        [cell.strip().strip("`") for cell in line.split("|")[1:-1]]
        for line in section("## Number formats").splitlines() if line.startswith("|")
    ]
    assert cells[0] == ["value", "paper style", "colon style"] and len(cells) > 2
    for text, paper, colon in cells[2:]:
        value = Fraction(text)
        assert sexagesimal.to_string(value) == paper and sexagesimal.to_string(value, "colon") == colon
        assert sexagesimal.parse(paper).value == value == sexagesimal.parse(colon).value


def test_readme_library_block_runs():
    """Runs the block as written.  A comment that starts with a lowercase word is prose;
    any other states, up to its first ";", the value of its line."""
    block = fenced(section("## Library"), "python")
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    types = {**vars(factor), **vars(survey), **vars(sexagesimal)}
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            value = eval(ast.unparse(stmt.targets[0]), namespace) if isinstance(stmt, ast.Assign) else None
        comment = comments.get(stmt.lineno, "")
        if comment and not comment[0].islower():
            assert value == eval(comment.split(";")[0], {**types, **namespace}), ast.unparse(stmt)
            checked += 1
    assert checked >= 10


def test_readme_states_no_timing_and_no_machine():
    assert re.findall(r"\d\s*(?:s|ms|MiB|KiB)\b", README) == []
    assert re.findall(r"\b(?:v?CPUs?|Xeon|VM|GHz|cores?)\b", README) == []
