"""README's Library example runs as written against the package."""

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs():
    exec(compile(library_block(), "README.md", "exec"), {})
