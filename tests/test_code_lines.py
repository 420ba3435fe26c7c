"""The code-line counter in ``tools/code_lines.py``.

A code line is a physical line that holds a code token: comments, blank
lines and docstrings do not count, and every line of a multi-line
expression or of a string that is not a docstring does.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """Function docstring."""
    total = (
        x
        + 1
    )
    text = """not a docstring:
every line counts"""
    return total, text


class C:
    """Class docstring
    """

    y = 1
'''
# import, def, the five lines of the two assignments' expressions and
# strings (3 + 2 for "total", the two "text" lines), return, class, y
EXPECTED = 11


def test_counts_code_tokens_only():
    assert code_lines.code_lines(SOURCE) == EXPECTED


def test_empty_and_docstring_only_modules():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(EXPECTED), str(tmp_path / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        [str(EXPECTED + 2), "total"],
    ]


def test_no_path_is_a_usage_error(capsys):
    assert code_lines.main([]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
