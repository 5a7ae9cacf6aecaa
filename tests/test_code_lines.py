"""``tools/code_lines.py``: what counts as a code line."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
from code_lines import by_package, code_lines, main  # noqa: E402

_MODULE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    s = """a string
    that is not a docstring"""
    return s
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, x = 1, def (2 lines), s = (2 lines), return
    assert code_lines(_MODULE) == 8
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_packages_sum_to_the_total(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "top.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "a.py").write_text(_MODULE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("z = 3\n")
    assert by_package(tmp_path) == {".": 2, "pkg": 9}
    assert by_package(tmp_path / "top.py") == {".": 2}
    assert main([str(tmp_path), str(tmp_path / "top.py")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["total", "13"]
    assert ["total", "11"] in [line.split() for line in out]
