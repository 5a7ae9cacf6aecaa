"""``repro lint`` — an AST pass for rank-divergent and unsafe SPMD code.

The static prong of :mod:`repro.sanitize`: a custom :mod:`ast` visitor
over Python sources (by default ``src/repro`` and ``examples/``) that
flags the SPMD bug patterns the runtime sanitizer catches dynamically,
*before* the code ever runs:

``rank-divergent-collective``
    A collective call (``bcast``, ``allreduce``, ``barrier``, ...)
    inside a branch whose condition depends on the rank
    (``if comm.rank == 0: comm.bcast(...)``).  Collectives must be
    entered by every rank; a rank-conditional one hangs the others.

``use-after-move``
    A buffer passed to ``send(..., copy=False)`` (or another
    move-capable operation) and then referenced later in the same
    scope.  The move relinquishes ownership — the later use either
    raises (frozen buffer) or races the receiver.

``tag-mismatch``
    Literal point-to-point tags within one function whose send set and
    receive set disagree (``send(x, 1, tag=7)`` against
    ``recv(0, tag=8)``) — the classic silent-hang typo.

``raw-lapack``
    A direct ``np.linalg.svd`` / ``np.linalg.eigh`` (or
    ``scipy.linalg.*``) call outside :mod:`repro.linalg`, bypassing the
    instrumented, numerically-hardened kernels the paper's accuracy
    claims rest on.

``raw-pickle``
    An ``import pickle`` outside :mod:`repro.mpi.transport` — the
    authenticated wire between a master and the workers it forked is
    the one place the library unpickles anything.  Bytes at rest (a
    checkpoint, an archive) outlive the process that wrote them, so
    they go through :mod:`repro.util.durable`, whose JSON-plus-raw-
    arrays shards cannot execute code when read.

``direct-observer-call``
    Under :mod:`repro.mpi`, a call that writes into an observer directly
    — ``record_send``/``record_recv``/``record_dropped``/
    ``record_retried``/``record_checksum_failure``, ``add_bytes``,
    ``recorder.record`` — outside the observer classes themselves.  The
    message path reports through one door, :func:`repro.obs.recorder.
    emit`, and every observer sees every event; a hand-placed hook call
    is how one of them goes blind.

Findings are :class:`~repro.sanitize.Diagnostic` records (shared with
the runtime sanitizer), rendered ``file:line: severity[kind] message``.

Suppression: append ``# repro-lint: skip`` to a line to silence every
rule there, or ``# repro-lint: allow(<kind>)`` for one rule — the
escape hatch for intentional exceptions such as the raw-LAPACK timing
loops in :mod:`repro.perf.calibrate`.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Sequence

from .diagnostics import ERROR, WARNING, Diagnostic, Suppressions

__all__ = [
    "DEFAULT_RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "default_lint_roots",
]

DEFAULT_RULES = (
    "rank-divergent-collective",
    "use-after-move",
    "tag-mismatch",
    "raw-lapack",
    "raw-pickle",
    "direct-observer-call",
)

# Names that read as "this process's rank" in a branch condition.
_RANK_NAMES = frozenset({"rank", "world_rank", "my_rank"})

# MPI-style collective method names.  Every rank of a communicator must
# call these, so they may not sit inside rank-conditional branches.
_COLLECTIVES = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "reduce_scatter", "split", "dup",
})

# Method names whose ``copy=False`` form moves (relinquishes) the buffer.
_MOVE_CAPABLE = frozenset({
    "send", "isend", "sendrecv", "alltoall", "reduce_scatter",
})

# Receiver-chain roots that make a ``.reduce``/``.split``-style call
# clearly *not* a communicator operation (np.add.reduce, "a,b".split).
_NON_COMM_ROOTS = frozenset({
    "np", "numpy", "scipy", "math", "functools", "operator", "itertools",
    "os", "re", "str", "string",
})

# Position of the ``tag`` argument in each point-to-point call
# (0-indexed, counting from the first argument after ``self``).
_TAG_POSITIONS = {"send": 2, "isend": 2, "sendrecv": 2, "recv": 1, "irecv": 1}
_TAG_SENDERS = frozenset({"send", "isend", "sendrecv"})
_TAG_RECEIVERS = frozenset({"recv", "irecv", "sendrecv"})

# Observer methods the message path may not call by hand (it emits).
_OBSERVER_WRITES = frozenset({
    "record_send", "record_recv", "record_dropped", "record_retried",
    "record_checksum_failure", "add_bytes",
})

def _root_name(node: ast.expr) -> str | None:
    """Leftmost identifier of a Name/Attribute chain (``np.linalg`` -> np)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _terminal_name(node: ast.expr) -> str | None:
    """Rightmost identifier of a Name/Attribute chain (``comm.rank`` -> rank)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_collective_call(call: ast.Call) -> str | None:
    """The collective's name when ``call`` is a communicator collective."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    if name not in _COLLECTIVES:
        return None
    if _root_name(func.value) in _NON_COMM_ROOTS:
        return None
    if name == "split":
        # ``.split`` is overwhelmingly str.split; require communicator
        # evidence: a color/key keyword or a comm-ish receiver name.
        kwargs = {k.arg for k in call.keywords}
        receiver = (_terminal_name(func.value) or "").lower()
        if not ({"color", "key"} & kwargs) and "comm" not in receiver:
            return None
    return name


def _mentions_rank(node: ast.expr) -> bool:
    """True when a condition references a rank-named variable/attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _RANK_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _RANK_NAMES:
            return True
    return False


def _dotted_path(node: ast.expr) -> str | None:
    """``state.buf`` -> "state.buf" for pure Name/Attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Scope:
    """One lexical scope (module body or a single function, nested
    functions excluded) with the name-usage index the flow rules need."""

    def __init__(self, node: ast.AST, name: str) -> None:
        self.node = node
        self.name = name
        self.statements: list[ast.stmt] = list(getattr(node, "body", []))
        # name -> [(line, col)] of loads / stores, in source order.
        self.loads: dict[str, list[tuple[int, int]]] = {}
        self.stores: dict[str, list[tuple[int, int]]] = {}
        self.calls: list[ast.Call] = []
        self.loops: list[ast.stmt] = []

    def index(self) -> None:
        # ``x += 1`` mutates the bound object in place: a *read* of the
        # (possibly moved) buffer, not a rebinding — record its target
        # as a load even though the AST marks it Store.
        aug_targets: set[int] = set()
        for sub in self._walk_scope():
            if isinstance(sub, ast.AugAssign) and isinstance(
                sub.target, (ast.Name, ast.Attribute)
            ):
                aug_targets.add(id(sub.target))
            elif isinstance(sub, ast.Name):
                where = (sub.lineno, sub.col_offset)
                if isinstance(sub.ctx, ast.Load) or id(sub) in aug_targets:
                    self.loads.setdefault(sub.id, []).append(where)
                else:
                    self.stores.setdefault(sub.id, []).append(where)
            elif isinstance(sub, ast.Attribute):
                # Buffers reached through attribute chains (self.buf,
                # state.buf) participate in the move-flow rules under
                # their dotted path, alongside plain names.
                dotted = _dotted_path(sub)
                if dotted is not None:
                    where = (sub.lineno, sub.col_offset)
                    if isinstance(sub.ctx, ast.Load) or id(sub) in aug_targets:
                        self.loads.setdefault(dotted, []).append(where)
                    else:
                        self.stores.setdefault(dotted, []).append(where)
            elif isinstance(sub, ast.Call):
                self.calls.append(sub)
            elif isinstance(sub, (ast.For, ast.AsyncFor, ast.While)):
                self.loops.append(sub)

    def _walk_scope(self) -> Iterable[ast.AST]:
        """Walk this scope's nodes, not descending into nested functions."""
        stack: list[ast.AST] = list(self.statements)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # nested scope: its body belongs to that scope
            stack.extend(ast.iter_child_nodes(node))

    def enclosing_loop(self, call: ast.Call) -> ast.stmt | None:
        """The innermost for/while loop containing ``call``, if any."""
        best: ast.stmt | None = None
        for loop in self.loops:
            if (loop.lineno <= call.lineno
                    and call.lineno <= (loop.end_lineno or loop.lineno)):
                if best is None or loop.lineno >= best.lineno:
                    best = loop
        return best


def _iter_scopes(tree: ast.Module) -> Iterable[_Scope]:
    yield _Scope(tree, "<module>")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _Scope(node, node.name)


def _call_arg(call: ast.Call, position: int, keyword: str) -> ast.expr | None:
    """Argument at ``position`` or passed as ``keyword=``, if present."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


def _keyword_false(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _rule_rank_divergent(tree: ast.Module) -> list[tuple]:
    """Collectives under rank-conditional control flow."""
    findings = []

    def flag(call: ast.Call, coll: str, cond_line: int) -> None:
        findings.append((
            "rank-divergent-collective",
            call.lineno,
            call.end_lineno or call.lineno,
            f"collective {coll}() inside a rank-conditional "
            f"branch (condition at line {cond_line}); every "
            f"rank of the communicator must call it, or the "
            f"others hang",
        ))

    def flag_calls_in(nodes: Iterable[ast.AST], cond_line: int) -> None:
        for root in nodes:
            for sub in ast.walk(root):
                if isinstance(sub, ast.Call):
                    coll = _is_collective_call(sub)
                    if coll is not None:
                        flag(sub, coll, cond_line)

    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)) and _mentions_rank(node.test):
            flag_calls_in(node.body, node.lineno)
            flag_calls_in(getattr(node, "orelse", []), node.lineno)
        elif isinstance(node, ast.IfExp) and _mentions_rank(node.test):
            flag_calls_in((node.body, node.orelse), node.lineno)
        elif isinstance(node, ast.BoolOp):
            # Short-circuit guards: ``comm.rank == 0 and comm.barrier()``
            # executes the collective on a rank-dependent subset exactly
            # like an if-branch would.
            for i, value in enumerate(node.values[1:], start=1):
                if any(_mentions_rank(v) for v in node.values[:i]):
                    flag_calls_in((value,), node.lineno)
    return findings


def _rule_use_after_move(scope: _Scope) -> list[tuple]:
    """Zero-copy-moved buffers referenced after the move."""
    findings = []
    for call in scope.calls:
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _MOVE_CAPABLE or not _keyword_false(call, "copy"):
            continue
        buf = call.args[0] if call.args else None
        if isinstance(buf, ast.Name):
            name = buf.id
        elif isinstance(buf, ast.Attribute):
            name = _dotted_path(buf)
        else:
            name = None
        if name is None:
            continue
        call_pos = (buf.lineno, buf.col_offset)
        all_loads = scope.loads.get(name, [])
        loads = [p for p in all_loads if p != call_pos]
        stores = scope.stores.get(name, [])
        loop = scope.enclosing_loop(call)
        offending: list[tuple[int, int]] = []
        if loop is not None and not any(
            loop.lineno <= line <= (loop.end_lineno or loop.lineno)
            for line, _ in stores
        ):
            # Moved inside a loop and never rebound there: every
            # reference in the loop body — including the move's own
            # argument on the next iteration — reuses a relinquished
            # buffer.
            end = loop.end_lineno or loop.lineno
            offending = [
                p for p in all_loads if loop.lineno <= p[0] <= end
            ]
        if not offending:
            # Straight-line case: loads after the move, up to the next
            # rebinding of the name.
            after = [p for p in loads if p > (call.lineno, call.col_offset)]
            rebinds = [
                p for p in stores if p > (call.lineno, call.col_offset)
            ]
            horizon = min(rebinds) if rebinds else None
            offending = [
                p for p in after if horizon is None or p < horizon
            ]
        for line, _col in sorted(set(offending)):
            findings.append((
                "use-after-move",
                line,
                line,
                f"'{name}' is referenced after being moved by "
                f"{func.attr}(..., copy=False) at line {call.lineno}; the "
                f"receiver owns the buffer now — copy before reuse or "
                f"send with copy=True",
            ))
    return findings


def _rule_tag_mismatch(scope: _Scope) -> list[tuple]:
    """Literal p2p tags whose send and receive sets disagree."""
    sends: list[tuple[int, int, int]] = []  # (tag, line, end_line)
    recvs: list[tuple[int, int, int]] = []
    for call in scope.calls:
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue
        name = func.attr
        if name not in _TAG_POSITIONS:
            continue
        tag_node = _call_arg(call, _TAG_POSITIONS[name], "tag")
        if not (isinstance(tag_node, ast.Constant)
                and isinstance(tag_node.value, int)
                and not isinstance(tag_node.value, bool)):
            continue
        tag = tag_node.value
        extent = (call.lineno, call.end_lineno or call.lineno)
        if name in _TAG_SENDERS:
            sends.append((tag, *extent))
        if name in _TAG_RECEIVERS:
            recvs.append((tag, *extent))
    if not sends or not recvs:
        return []
    send_tags = {t for t, _, _ in sends}
    recv_tags = {t for t, _, _ in recvs}
    findings = []
    for tag, line, end_line in sends:
        if tag not in recv_tags:
            findings.append((
                "tag-mismatch", line, end_line,
                f"send with literal tag {tag} has no matching recv tag in "
                f"this scope (recv tags: {sorted(recv_tags)}); mismatched "
                f"tags hang both sides",
            ))
    for tag, line, end_line in recvs:
        if tag not in send_tags:
            findings.append((
                "tag-mismatch", line, end_line,
                f"recv with literal tag {tag} has no matching send tag in "
                f"this scope (send tags: {sorted(send_tags)}); mismatched "
                f"tags hang both sides",
            ))
    return findings


def _rule_raw_lapack(tree: ast.Module) -> list[tuple]:
    """Direct LAPACK-driver calls that bypass repro.linalg."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "svd", "eigh",
        ):
            continue
        if _terminal_name(func.value) != "linalg":
            continue
        findings.append((
            "raw-lapack", node.lineno, node.end_lineno or node.lineno,
            f"raw {ast.unparse(func)}() call bypasses the instrumented "
            f"repro.linalg kernels (flop accounting, precision policy, "
            f"accuracy hardening); use repro.linalg instead",
        ))
    return findings


def _rule_raw_pickle(tree: ast.Module) -> list[tuple]:
    """``pickle`` imported off the transport wire."""
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:  # (a relative import names a sibling, not the stdlib)
            continue
        if any(m.split(".")[0] in ("pickle", "_pickle") for m in modules):
            findings.append((
                "raw-pickle", node.lineno, node.end_lineno or node.lineno,
                "pickle imported outside repro.mpi.transport (the "
                "authenticated wire): unpickling runs code, so state "
                "written to disk goes through repro.util.durable",
            ))
    return findings


def _rule_direct_observer_call(tree: ast.Module) -> list[tuple]:
    """Observer writes that bypass ``emit`` (observer classes exempt)."""
    findings = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "on_event"
            for item in node.body
        ):
            return  # an observer may call its own recording methods
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, receiver = node.func.attr, _terminal_name(node.func.value)
            if attr in _OBSERVER_WRITES or (
                attr == "record" and receiver == "recorder"
            ):
                findings.append((
                    "direct-observer-call", node.lineno,
                    node.end_lineno or node.lineno,
                    f"{ast.unparse(node.func)}() writes into an observer "
                    f"directly; the message path reports through "
                    f"repro.obs.recorder.emit (or SpmdContext.emit), so "
                    f"every observer sees the event",
                ))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return findings


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    filename: str = "<string>",
    rules: Sequence[str] = DEFAULT_RULES,
) -> list[Diagnostic]:
    """Lint one source string; returns sorted diagnostics."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Diagnostic(
            kind="syntax-error", message=str(exc), severity=ERROR,
            file=filename, line=exc.lineno or 0,
        )]
    suppress = Suppressions(source)
    raw: list[tuple[str, int, int, str]] = []
    if "rank-divergent-collective" in rules:
        raw.extend(_rule_rank_divergent(tree))
    if "raw-lapack" in rules and not _within(filename, "repro/linalg/"):
        raw.extend(_rule_raw_lapack(tree))
    if "raw-pickle" in rules and not _within(filename, "repro/mpi/transport/"):
        raw.extend(_rule_raw_pickle(tree))
    if "direct-observer-call" in rules and _within(filename, "repro/mpi/"):
        raw.extend(_rule_direct_observer_call(tree))
    if "use-after-move" in rules or "tag-mismatch" in rules:
        for scope in _iter_scopes(tree):
            scope.index()
            if "use-after-move" in rules:
                raw.extend(_rule_use_after_move(scope))
            if "tag-mismatch" in rules:
                raw.extend(_rule_tag_mismatch(scope))
    out = [
        Diagnostic(kind=kind, message=msg, severity=ERROR,
                   file=filename, line=line)
        for kind, line, end_line, msg in raw
        if not suppress.suppressed(kind, line, end_line)
    ]
    out.sort(key=lambda d: (d.line or 0, d.kind))
    return out


def _within(filename: str, package_dir: str) -> bool:
    """True for files inside ``package_dir`` — the one legitimate home of
    the facility a ``raw-*`` rule guards (``repro/linalg/``: the
    instrumented kernels themselves; ``repro/mpi/transport/``: the wire),
    or the package a rule polices (``repro/mpi/``: the message path)."""
    return package_dir in filename.replace(os.sep, "/")


def lint_file(path: str, rules: Sequence[str] = DEFAULT_RULES) -> list[Diagnostic]:
    """Lint one file."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    return lint_source(source, filename=path, rules=rules)


def lint_paths(
    paths: Iterable[str],
    rules: Sequence[str] = DEFAULT_RULES,
) -> list[Diagnostic]:
    """Lint files and directory trees (``*.py``, recursively)."""
    findings: list[Diagnostic] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                ]
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        findings.extend(
                            lint_file(os.path.join(dirpath, fn), rules)
                        )
        else:
            findings.extend(lint_file(path, rules))
    return findings


def default_lint_roots(cwd: str | None = None) -> list[str]:
    """The conventional lint targets: the repro package and examples/.

    Resolves the installed package location first (so ``repro lint``
    works from any directory), then adds ``examples/`` and ``src/``
    relative to the working directory when they exist.
    """
    roots: list[str] = []
    pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    roots.append(pkg_dir)
    cwd = cwd or os.getcwd()
    for rel in ("examples",):
        cand = os.path.join(cwd, rel)
        if os.path.isdir(cand):
            roots.append(cand)
    return roots
