import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

HERE = Path(__file__).resolve().parent

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as its line

# a comment line


def f(x):
    """A function docstring."""
    total = sum(
        x,
        start=0,
    )
    "a bare string statement is skipped too"
    text = """a string
that is code"""
    return total, text


class C:
    """One line."""

    y = 1
'''


def test_counts_code_lines_only():
    # import; def; the four lines of the call; the two of the assigned
    # string; return; class; y.
    assert code_lines(FIXTURE) == 11
    assert code_lines("") == code_lines('"""Only a docstring."""\n') == code_lines("# only\n\n") == 0


def test_prints_per_file_counts_and_a_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(HERE / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["1", "11", "12"]
    assert out[-1].split() == ["12", "total"]
