import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 7 code lines: the docstrings, the comments and the blank lines count none, a
# statement over two lines counts two, and so does a string that is no docstring
FIXTURE = '''"""Module docstring
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    return (x +
            1)


class C:
    \'\'\'Class
    docstring.\'\'\'
    y = """not a
    docstring"""
'''


def test_fixture(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(FIXTURE)
    (tmp_path / "top.py").write_text("x = 1\n")
    assert code_lines.code_lines(tmp_path / "pkg" / "mod.py") == 7
    code_lines.main(str(tmp_path))
    assert capsys.readouterr().out == "     7  pkg/mod.py\n     1  top.py\n     8  total\n"
