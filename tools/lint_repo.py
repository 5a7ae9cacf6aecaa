#!/usr/bin/env python3
"""Run both static tiers — lint and whole-program verify — over the repo.

Thin wrapper around ``repro lint --strict`` and ``repro verify
--strict`` that works without an installed package (it prepends
``src/`` to ``sys.path``), so CI and pre-commit hooks can call it from
a bare checkout:

    python tools/lint_repo.py                 # both tiers, src/ + examples/
    python tools/lint_repo.py --lint-only     # the per-function tier alone
    python tools/lint_repo.py tests/foo.py    # extra trees too

The lint tier ends with one rule about this repository rather than about
SPMD programs, ``platform-import-in-algorithm-layer``: imports run one
way, platform -> algorithms (DESIGN.md, "Layers and the import
direction").  A module-level import of ``repro.mpi``, ``repro.sanitize``,
``repro.perf``, ``repro.faults`` (other than its kernel hook and
``guards``) or ``repro.obs`` (other than the tracer hook) from
``tensor/``, ``linalg/``, ``data/``, ``util/``, ``precision.py``,
``instrument.py`` or ``core/`` (other than its fault-tolerant loop,
``ft.py``) is an error;
function-level and ``TYPE_CHECKING`` imports are allowed, and so is a
line carrying ``# repro-lint: allow(platform-import-in-algorithm-layer)``.
With it runs ``eager-import-in-package-init``: an ``__init__`` holds names,
not imports, so a module-level import of a ``repro`` module in any
``src/repro/**/__init__.py`` is an error, other than ``_lazy`` and the
Quickstart's two in ``repro/__init__`` (``tensor.dense``, ``core.sthosvd``:
the closure of Alg. 1-2) — the name goes in the ``lazy_exports`` table.
Last, ``bench-alias-import``: ``repro.core.sthosvd_parallel`` is
``repro.sthosvd`` under the name ``bench/`` imports, and no file of the
repository outside ``bench/`` may import it (a line carrying
``# repro-lint: allow(bench-alias-import)`` may).

The verify tier subtracts the committed findings baseline
(``tools/verify_baseline.json``, a JSON list of ``{kind, file, line}``
records — empty while the repo self-verifies clean) so a deliberate,
reviewed exception never blocks CI while any *new* finding still does.

Exits non-zero when either tier reports a finding; see
docs/sanitizer.md for the lint rules and docs/static-analysis.md for
the verifier's analysis model and the ``# repro-lint:`` pragmas.
"""

from __future__ import annotations

import ast
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cli import main  # noqa: E402
from repro.sanitize import ERROR, Diagnostic, Suppressions, format_diagnostics  # noqa: E402

BASELINE = os.path.join(REPO, "tools", "verify_baseline.json")

LAYER_RULE = "platform-import-in-algorithm-layer"
# Paths under src/repro that hold the paper's algorithms on one core ...
ALGORITHM_LAYER = re.compile(
    r"(?:tensor|linalg|data|util)/|(?:precision|instrument)\.py$"
    r"|core/(?!ft\.py$)")
# ... and the modules they may not import when they are imported.
PLATFORM = re.compile(
    r"repro\.(?:mpi|sanitize|perf|obs(?!\.tracer(?:\.|$))"
    r"|faults(?!\.(?:_hook|guards)(?:\.|$)))(?:\.|$)")

INIT_RULE = "eager-import-in-package-init"
# What `import repro` executes is what these import, and nothing else.
QUICKSTART = ("repro.tensor.dense.DenseTensor", "repro.core.sthosvd.sthosvd",
              "repro.core.sthosvd.SthosvdResult")


ALIAS_RULE = "bench-alias-import"
# `sthosvd` under its old name, kept for bench/ alone until bench/ moves.
BENCH_ALIAS = "repro.core.sthosvd_parallel"


def module_level_imports(body):
    """Import statements that run when the module is imported."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            if "TYPE_CHECKING" not in ast.unparse(stmt.test):
                yield from module_level_imports(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from module_level_imports(
                stmt.body + [s for h in stmt.handlers for s in h.body])


def imported_names(stmt, relpath: str) -> list[str]:
    """Dotted names an import statement of ``src/<relpath>`` binds."""
    if isinstance(stmt, ast.Import):
        return [alias.name for alias in stmt.names]
    package = relpath.split("/")[:-1]
    base = package[:len(package) - stmt.level + 1] if stmt.level else []
    module = ".".join(base + ([stmt.module] if stmt.module else []))
    return [f"{module}.{alias.name}" for alias in stmt.names]


def layer_findings(source: str, relpath: str) -> list[Diagnostic]:
    """The rule over one file; ``relpath`` is its path under ``src/``
    (``repro/linalg/qr.py``), which places it in a layer and anchors its
    relative imports."""
    if not ALGORITHM_LAYER.match(relpath.removeprefix("repro/")):
        return []
    suppress = Suppressions(source)
    findings = []
    for stmt in module_level_imports(ast.parse(source).body):
        bad = [t for t in imported_names(stmt, relpath) if PLATFORM.match(t)]
        if bad and not suppress.suppressed(
                LAYER_RULE, stmt.lineno, stmt.end_lineno or stmt.lineno):
            findings.append(Diagnostic(
                kind=LAYER_RULE, severity=ERROR, file=relpath, line=stmt.lineno,
                message=f"{relpath} is imported by `import repro` and imports "
                        f"{', '.join(bad)} at module level: the platform "
                        f"imports the algorithms, not the reverse (import it "
                        f"in the function that needs it)"))
    return findings


def init_findings(source: str, relpath: str) -> list[Diagnostic]:
    """``eager-import-in-package-init`` over one file (no pragma lifts it)."""
    if not relpath.endswith("/__init__.py"):
        return []
    allowed = {"repro._lazy.lazy_exports",
               *(QUICKSTART if relpath == "repro/__init__.py" else ())}
    findings = []
    for stmt in module_level_imports(ast.parse(source).body):
        bad = [t for t in imported_names(stmt, relpath)
               if t.startswith("repro.") and t not in allowed]
        if bad:
            findings.append(Diagnostic(
                kind=INIT_RULE, severity=ERROR, file=relpath, line=stmt.lineno,
                message=f"{relpath} imports {', '.join(bad)} at module level: "
                        f"an __init__ holds names, not imports (list the name "
                        f"in its lazy_exports table)"))
    return findings


def alias_findings(source: str, relpath: str) -> list[Diagnostic]:
    """``bench-alias-import`` over one file; ``relpath`` is its path under
    the repository (``src/repro/cli.py``, ``tests/test_x.py``)."""
    if relpath.startswith("bench/"):
        return []
    suppress = Suppressions(source)
    findings = []
    for stmt in ast.walk(ast.parse(source)):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        names = imported_names(stmt, relpath.removeprefix("src/"))
        if any(t == BENCH_ALIAS or t.startswith(BENCH_ALIAS + ".")
               for t in names) and not suppress.suppressed(
                ALIAS_RULE, stmt.lineno, stmt.end_lineno or stmt.lineno):
            findings.append(Diagnostic(
                kind=ALIAS_RULE, severity=ERROR, file=relpath, line=stmt.lineno,
                message=f"{relpath} imports {BENCH_ALIAS}, which only bench/ "
                        f"may: import repro.sthosvd (it takes a "
                        f"DistributedTensor)"))
    return findings


def lint_alias(repo: str) -> int:
    """``bench-alias-import`` over every Python file of the repository."""
    findings = []
    for dirpath, dirnames, filenames in sorted(os.walk(repo)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, repo).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                findings += alias_findings(f.read(), relpath)
    if findings:
        print(format_diagnostics(
            findings, header=f"{ALIAS_RULE}: {len(findings)} finding(s)"))
    else:
        print(f"{ALIAS_RULE}: clean ({repo})")
    return 1 if findings else 0


def lint_layers(src: str) -> int:
    """The two import rules over ``src/repro``."""
    findings = []
    for dirpath, _, filenames in sorted(os.walk(os.path.join(src, "repro"))):
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, src).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                source = f.read()
            findings += layer_findings(source, relpath)
            findings += init_findings(source, relpath)
    rules = f"{LAYER_RULE}, {INIT_RULE}"
    if findings:
        print(format_diagnostics(
            findings, header=f"{rules}: {len(findings)} finding(s)"))
    else:
        print(f"{rules}: clean ({src})")
    return 1 if findings else 0


def run(argv: list[str]) -> int:
    lint_only = "--lint-only" in argv
    argv = [a for a in argv if a != "--lint-only"]
    roots = argv or [
        os.path.join(REPO, "src"),
        os.path.join(REPO, "examples"),
    ]
    rc = main(["lint", "--strict", *roots])
    rc = rc or lint_layers(os.path.join(REPO, "src")) or lint_alias(REPO)
    if rc == 0 and not lint_only:
        verify_args = ["verify", "--strict"]
        if os.path.exists(BASELINE):
            verify_args += ["--baseline", BASELINE]
        rc = main([*verify_args, *roots])
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
