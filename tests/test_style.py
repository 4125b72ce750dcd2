"""Source layout rules a linter would check: every Python file under
``src/liebox`` and ``tests`` has lines of at most 100 columns, no trailing
whitespace and exactly one newline at its end."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MAX_COLUMNS = 100
FILES = sorted(p for d in ("src/liebox", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_layout(path):
    text = path.read_text(encoding="utf-8")
    one_newline = text.endswith("\n") and not text.endswith("\n\n")
    assert one_newline, "the file must end in exactly one newline"
    for number, line in enumerate(text.split("\n")[:-1], 1):
        assert len(line) <= MAX_COLUMNS, f"line {number} has {len(line)} columns"
        assert line == line.rstrip(), f"line {number} has trailing whitespace"
