"""The code-line count of ``scripts/code_lines.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """A class docstring."""

    size = 1


def area(
    width,
    height,
):
    """A function
    docstring."""
    text = """a string that is
not a docstring"""
    return width * height  # 10 code lines so far, counting this one
'''


def test_code_lines_of_a_synthetic_module():
    # import, class, size, the four lines of the def, the two of the
    # string, return
    assert code_lines.code_lines(MODULE) == 10


def test_package_lines_and_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 10\ntotal 11\n"
