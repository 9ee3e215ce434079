"""tools/code_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment counts as its line's code


class A:
    """A class docstring."""

    x = """not a docstring:
    an assignment's string counts"""

    def f(self):
        """A function docstring."""
        return (1,
                2)
'''


def test_counts_lines_that_are_neither_blank_comments_nor_docstrings():
    # import, class, x = (two lines), def, return (two lines)
    assert code_lines.code_lines(SOURCE) == 7


def test_walks_directories_for_python_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\n')
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "0", "2"]
    assert lines[-1].split()[1] == "total"
