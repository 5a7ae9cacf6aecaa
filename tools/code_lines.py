#!/usr/bin/env python3
"""Code lines of Python sources, per package and in total.

    python tools/code_lines.py [PATH ...]        # default: src/repro

A code line is a physical line that holds at least one token of code:
blank lines, comment-only lines and docstrings (module, class and
function) do not count; every line of a multi-line statement or of a
non-docstring string literal does.  For each PATH the lines are summed
per first-level package under it (``core``, ``mpi`` with everything
below it, ...), with the modules directly in PATH under ``.``, then in
total; several PATHs end with their grand total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def by_package(path: Path) -> Counter:
    """Code lines of every ``*.py`` under ``path``, keyed by the first-level
    package they belong to (``"."`` for modules directly in ``path``)."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    counts = Counter()
    for f in files:
        parts = f.relative_to(path).parts if f != path else (f.name,)
        counts[parts[0] if len(parts) > 1 else "."] += code_lines(
            f.read_text(encoding="utf-8"))
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "repro"]
    grand = 0
    for path in paths:
        counts = by_package(path)
        total = sum(counts.values())
        grand += total
        print(path)
        for package, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"  {package:<16} {n:>7}")
        print(f"  {'total':<16} {total:>7}")
    if len(paths) > 1:
        print(f"{'total':<18} {grand:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
