#!/usr/bin/env python3
"""The repository's own rules, then ``repro verify --strict``.

Works without an installed package (it prepends ``src/`` to
``sys.path``), so CI and pre-commit hooks can call it from a bare
checkout:

    python tools/lint_repo.py                 # src/ + examples/
    python tools/lint_repo.py tests/foo.py    # other trees instead

Six rules are about this repository rather than about SPMD programs.
Three run over every file of the roots:

``raw-lapack``
    A direct ``np.linalg.svd`` / ``np.linalg.eigh`` (or
    ``scipy.linalg.*``) call outside ``repro/linalg/``, bypassing the
    instrumented, numerically-hardened kernels the paper's accuracy
    claims rest on.
``raw-pickle``
    An ``import pickle`` outside ``repro/mpi/transport/`` — the
    authenticated wire between a master and the workers it forked is the
    one place the library unpickles anything.  Bytes at rest (a
    checkpoint, an archive) outlive the process that wrote them, so they
    go through ``repro.util.durable``, whose JSON-plus-raw-arrays shards
    cannot execute code when read.
``direct-observer-call``
    Under ``repro/mpi/``, a call that writes into an observer directly —
    ``record_send``/``record_recv``/``record_dropped``/
    ``record_retried``/``record_checksum_failure``, ``add_bytes``,
    ``recorder.record`` — outside the observer classes themselves (a
    class with an ``on_event``).  The message path reports through one
    door, ``repro.obs.recorder.emit``, and every observer sees every
    event; a hand-placed hook call is how one of them goes blind.

Append ``# repro-lint: skip`` to a line to silence every rule there, or
``# repro-lint: allow(<kind>)`` for one rule (anywhere on a multi-line
statement) — the escape hatch for intentional exceptions such as the
raw-LAPACK timing loops in ``repro/perf/calibrate.py``.

Next, ``platform-import-in-algorithm-layer``: imports run one
way, platform -> algorithms (DESIGN.md, "Layers and the import
direction").  A module-level import of ``repro.mpi``, ``repro.sanitize``,
``repro.perf``, ``repro.faults`` (other than its kernel hook and
``guards``) or ``repro.obs`` (other than the tracer hook) from
``tensor/``, ``linalg/``, ``data/``, ``util/``, ``precision.py``,
``instrument.py`` or ``core/`` is an error;
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

``repro verify`` then checks the SPMD rules (docs/static-analysis.md)
over the same roots, less the committed findings baseline
(``tools/verify_baseline.json``, a JSON list of ``{kind, file, line}``
records — empty while the repo self-verifies clean) so a deliberate,
reviewed exception never blocks CI while any *new* finding still does.

Exits non-zero when any rule reports a finding.
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

LAPACK_RULE, PICKLE_RULE, OBSERVER_RULE = (
    "raw-lapack", "raw-pickle", "direct-observer-call")
CODE_RULES = (LAPACK_RULE, PICKLE_RULE, OBSERVER_RULE)
# Observer methods the message path may not call by hand (it emits).
OBSERVER_WRITES = frozenset({
    "record_send", "record_recv", "record_dropped", "record_retried",
    "record_checksum_failure", "add_bytes",
})

LAYER_RULE = "platform-import-in-algorithm-layer"
# Paths under src/repro that hold the paper's algorithms on one core ...
ALGORITHM_LAYER = re.compile(
    r"(?:tensor|linalg|data|util)/|(?:precision|instrument)\.py$"
    r"|core/")
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


def _terminal_name(node: ast.expr) -> str | None:
    """Rightmost identifier of a Name/Attribute chain (``comm.rank`` -> rank)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raw_lapack(tree: ast.Module):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("svd", "eigh")
                and _terminal_name(node.func.value) == "linalg"):
            yield node, (f"raw {ast.unparse(node.func)}() call bypasses the "
                         f"instrumented repro.linalg kernels (flop accounting, "
                         f"precision policy, accuracy hardening); use "
                         f"repro.linalg instead")


def _raw_pickle(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:  # (a relative import names a sibling, not the stdlib)
            continue
        if any(m.split(".")[0] in ("pickle", "_pickle") for m in modules):
            yield node, ("pickle imported outside repro.mpi.transport (the "
                         "authenticated wire): unpickling runs code, so state "
                         "written to disk goes through repro.util.durable")


def _direct_observer_call(node: ast.AST):
    if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "on_event"
            for item in node.body):
        return  # an observer may call its own recording methods
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr, receiver = node.func.attr, _terminal_name(node.func.value)
        if attr in OBSERVER_WRITES or (attr == "record"
                                       and receiver == "recorder"):
            yield node, (f"{ast.unparse(node.func)}() writes into an observer "
                         f"directly; the message path reports through "
                         f"repro.obs.recorder.emit (or SpmdContext.emit), so "
                         f"every observer sees the event")
    for child in ast.iter_child_nodes(node):
        yield from _direct_observer_call(child)


def code_findings(source: str, relpath: str,
                  rules=CODE_RULES) -> list[Diagnostic]:
    """``raw-lapack``, ``raw-pickle`` and ``direct-observer-call`` over one
    file, sorted by line; ``relpath`` is its path (``src/repro/cli.py``),
    which exempts the one home of what a rule guards."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(kind="syntax-error", message=str(exc),
                           severity=ERROR, file=relpath, line=exc.lineno or 0)]
    path = relpath.replace(os.sep, "/")
    checks = {LAPACK_RULE: "repro/linalg/" not in path and _raw_lapack,
              PICKLE_RULE: "repro/mpi/transport/" not in path and _raw_pickle,
              OBSERVER_RULE: "repro/mpi/" in path and _direct_observer_call}
    suppress = Suppressions(source)
    findings = [
        Diagnostic(kind=rule, message=message, severity=ERROR, file=relpath,
                   line=node.lineno)
        for rule in rules if checks[rule]
        for node, message in checks[rule](tree)
        if not suppress.suppressed(rule, node.lineno,
                                   node.end_lineno or node.lineno)]
    return sorted(findings, key=lambda d: (d.line, d.kind))


def python_files(roots):
    """Every ``*.py`` under ``roots`` (files or trees), in order."""
    for root in roots:
        if not os.path.isdir(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__"
                                 and not d.startswith("."))
            for name in sorted(f for f in filenames if f.endswith(".py")):
                yield os.path.join(dirpath, name)


def lint_code(roots) -> int:
    """The three code rules over every Python file of ``roots``."""
    findings = []
    for path in python_files(roots):
        with open(path, encoding="utf-8") as f:
            findings += code_findings(f.read(), path)
    rules = ", ".join(CODE_RULES)
    if findings:
        print(format_diagnostics(
            findings, header=f"{rules}: {len(findings)} finding(s)"))
    else:
        print(f"{rules}: clean ({', '.join(roots)})")
    return 1 if findings else 0


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
    for path in python_files([repo]):
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
    for path in python_files([os.path.join(src, "repro")]):
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
    roots = argv or [
        os.path.join(REPO, "src"),
        os.path.join(REPO, "examples"),
    ]
    rc = (lint_code(roots) or lint_layers(os.path.join(REPO, "src"))
          or lint_alias(REPO))
    if rc == 0:
        verify_args = ["verify", "--strict"]
        if os.path.exists(BASELINE):
            verify_args += ["--baseline", BASELINE]
        rc = main([*verify_args, *roots])
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
