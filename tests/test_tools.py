"""tools/code_lines.py: the code-line count that ROADMAP's size goals use."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment line
def f(x):
    """A function docstring."""

    total = (x
             + 1
             + 2)
    return total
'''


def test_counts_code_lines_only():
    """The import, the def line, the three lines of the expression and the
    return: docstrings, comment lines and blank lines are not counted."""
    assert code_lines.code_lines(SOURCE) == 6


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "6"], ["b.py", "2"], ["total", "8"]]
