import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: 4 (import), 8 (class), 11-12 (a continued bracket
# expression), 14 (def), 17-18 (a multi-line string that is not a
# docstring) and 19 (return).
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code


# a comment-only line
class Box:
    """Class docstring."""

    size = (1 +
            2)

    def area(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        return text
'''


def test_counts_only_code_lines():
    assert code_lines.code_lines(SOURCE) == 8


def test_docstring_after_code_is_code():
    # Only a body's leading string statement is a docstring.
    assert code_lines.code_lines('x = 1\n"""a string"""\n') == 2


def test_main_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split() == ["9", "total"]
