"""Whole-program call graph and rank-sensitivity taint for the verifier.

The interprocedural half of :mod:`repro.sanitize.verify` needs three
things the per-function lint never computes:

* a **project table** of every function and method parsed from the
  analysis roots, keyed by qualified name, with each function's
  communicator-shaped parameters classified (a parameter named ``comm``
  or annotated ``Communicator`` *is* a communicator; a parameter whose
  ``.comm`` attribute the body reads *carries* one — the
  ``sthosvd(tensor, ...)`` shape);
* a **call graph** over those functions, resolving direct names,
  ``from module import f`` aliases, ``module.f`` attribute calls, and
  ``self.method`` calls against the enclosing class;
* a **rank-sensitivity taint** fixpoint: a function is rank-tainted
  when it reads ``comm.rank``/``comm.size`` (a *source*), receives a
  tainted argument, or calls a function whose return value is tainted —
  taint flows through assignments, call arguments, and returns until
  the per-function summaries stop changing.

The symbolic executor (:mod:`repro.sanitize.absint`) consumes the
project table to inline known callees; the ``repro verify`` CLI dumps
the reachable subgraph per analyzed driver as the DOT/JSON comm-graph
artifact.  Runtime packages (``repro/mpi``, ``repro/sanitize``,
``repro/obs``) are library code from the verifier's point of view and
are excluded from the table — their communicator methods are modeled
as primitives, never interpreted.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "FunctionInfo",
    "CallEdge",
    "Project",
    "load_project",
]

# Packages that implement the runtime itself: modeled as primitives,
# never parsed into the project table (matching the call-site capture
# skip list in diagnostics.py).
_LIBRARY_FRAGMENTS = (
    os.path.join("repro", "mpi") + os.sep,
    os.path.join("repro", "sanitize") + os.sep,
    os.path.join("repro", "obs") + os.sep,
)

_COMM_PARAM_NAMES = frozenset({"comm", "communicator", "world"})
_COMM_ANNOTATIONS = frozenset({"Communicator", "Comm"})
_RANK_ATTRS = frozenset({"rank", "size", "world_rank"})


@dataclass
class FunctionInfo:
    """One parsed function or method."""

    qualname: str  # "module.sub.func" or "module.sub.Class.func"
    name: str
    module: str
    file: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: tuple[str, ...]
    defaults: dict[str, ast.expr]
    cls: str | None = None  # enclosing class name, if a method
    comm_params: frozenset[str] = frozenset()
    comm_carriers: frozenset[str] = frozenset()
    reads_rank: bool = False
    # Taint summaries (filled by Project.propagate_taint).
    tainted_params: set[str] = field(default_factory=set)
    returns_tainted: bool = False
    rank_sensitive: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno

    def takes_comm(self) -> bool:
        return bool(self.comm_params or self.comm_carriers)


@dataclass(frozen=True)
class CallEdge:
    caller: str  # qualnames
    callee: str
    file: str
    line: int


def _is_library_file(path: str) -> bool:
    return any(frag in path for frag in _LIBRARY_FRAGMENTS)


def _module_name(path: str) -> str:
    """A stable dotted module key derived from the file path."""
    norm = path.replace(os.sep, "/")
    for marker in ("/src/", "/tests/", "/examples/"):
        idx = norm.rfind(marker)
        if idx >= 0:
            norm = norm[idx + len(marker):]
            break
    else:
        norm = os.path.basename(norm)
    if norm.endswith(".py"):
        norm = norm[:-3]
    return norm.replace("/", ".")


def _annotation_types(node: ast.expr | None) -> frozenset:
    """The type names an annotation allows: ``X | None``,
    ``Optional[X]``, ``Union[X, Y]`` and their quoted forms are looked
    through; ``Sequence[X]`` names ``Sequence``.  Empty when unannotated."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value.strip(), mode="eval").body
        except SyntaxError:
            return frozenset()
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_types(node.left) | _annotation_types(node.right)
    if isinstance(node, ast.Subscript):
        outer = _annotation_types(node.value)
        if outer & {"Optional", "Union"}:
            inner = node.slice
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            return frozenset().union(*map(_annotation_types, elts))
        return outer
    if isinstance(node, ast.Attribute):
        return frozenset({node.attr})
    if isinstance(node, ast.Name):
        return frozenset({node.id})
    return frozenset()  # None, or nothing a parameter could be


def _classify_params(node: ast.AST) -> tuple[frozenset, frozenset, bool]:
    """(comm params, comm-carrier params, reads comm.rank/.size)."""
    args = node.args
    all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    comm_params = set()
    for a in all_args:
        # By type when annotated (``comm: CommCosts`` is no communicator),
        # by name when not.
        types = _annotation_types(a.annotation)
        if types & _COMM_ANNOTATIONS or (
                not types and a.arg in _COMM_PARAM_NAMES):
            comm_params.add(a.arg)
    names = {a.arg for a in all_args}
    carriers = set()
    reads_rank = False
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if sub.attr in _RANK_ATTRS:
            reads_rank = True
        base = sub.value
        if (sub.attr == "comm" and isinstance(base, ast.Name)
                and base.id in names and base.id not in comm_params):
            carriers.add(base.id)
        # ``self.comm`` inside a method marks ``self`` as a carrier too.
        if (sub.attr == "comm" and isinstance(base, ast.Name)
                and base.id == "self" and "self" in names):
            carriers.add("self")
    return frozenset(comm_params), frozenset(carriers), reads_rank


class Project:
    """The parsed whole program: functions, imports, calls, taint."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        # module -> {local name -> fully-dotted target ("pkg.mod" or
        # "pkg.mod.func")} from import statements.
        self.imports: dict[str, dict[str, str]] = {}
        # module -> {name -> literal value} for top-level constants
        # (PING = 7); the executor constant-propagates these through
        # helper calls, closing the tag-through-helper gap.
        self.module_consts: dict[str, dict[str, object]] = {}
        self.edges: list[CallEdge] = []
        self.parse_errors: list[tuple[str, str]] = []

    # -- construction --------------------------------------------------
    def add_file(self, path: str) -> None:
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError) as exc:
            self.parse_errors.append((path, str(exc)))
            return
        module = _module_name(path)
        aliases = self.imports.setdefault(module, {})
        consts = self.module_consts.setdefault(module, {})
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                try:
                    consts[stmt.targets[0].id] = ast.literal_eval(stmt.value)
                except (ValueError, SyntaxError):
                    pass
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for al in node.names:
                    aliases[al.asname or al.name.split(".")[0]] = al.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for al in node.names:
                    target = f"{node.module}.{al.name}"
                    aliases[al.asname or al.name] = target

        def visit(body: Iterable[ast.stmt], prefix: str, cls: str | None):
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    args = stmt.args
                    all_args = (list(args.posonlyargs) + list(args.args)
                                + list(args.kwonlyargs))
                    params = tuple(a.arg for a in all_args)
                    pos = list(args.posonlyargs) + list(args.args)
                    defaults = {}
                    for a, d in zip(reversed(pos), reversed(args.defaults)):
                        defaults[a.arg] = d
                    for a, d in zip(args.kwonlyargs, args.kw_defaults):
                        if d is not None:
                            defaults[a.arg] = d
                    comm_params, carriers, reads_rank = _classify_params(stmt)
                    info = FunctionInfo(
                        qualname=qual, name=stmt.name, module=module,
                        file=path, node=stmt, params=params,
                        defaults=defaults, cls=cls,
                        comm_params=comm_params, comm_carriers=carriers,
                        reads_rank=reads_rank,
                    )
                    self.functions[qual] = info
                    self.by_name.setdefault(stmt.name, []).append(info)
                elif isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, f"{prefix}.{stmt.name}", stmt.name)

        visit(tree.body, module, None)

    # -- call resolution ----------------------------------------------
    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> FunctionInfo | None:
        """The project function a call statically resolves to, if any."""
        func = call.func
        module = caller.module
        aliases = self.imports.get(module, {})
        if isinstance(func, ast.Name):
            # Same-module function first, then an imported name, then a
            # project-unique function of that name.
            info = self.functions.get(f"{module}.{func.id}")
            if info is not None:
                return info
            target = aliases.get(func.id)
            if target is not None:
                tail = target.split(".")[-1]
                cands = [f for f in self.by_name.get(tail, ())
                         if target.endswith(f"{f.module}.{f.name}")
                         or f.module.endswith(
                             ".".join(target.split(".")[:-1]) or target)]
                if len(cands) == 1:
                    return cands[0]
                cands = self.by_name.get(tail, [])
                if len(cands) == 1:
                    return cands[0]
            cands = self.by_name.get(func.id, [])
            if len(cands) == 1:
                return cands[0]
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and caller.cls is not None:
                    return self.functions.get(
                        f"{caller.module}.{caller.cls}.{func.attr}")
                target = aliases.get(base.id)
                if target is not None:
                    # module alias: mod.f() or pkg.Class constructor
                    for cand in self.by_name.get(func.attr, ()):
                        if cand.module == target or cand.module.endswith(
                                "." + target.split(".")[-1]):
                            return cand
                    info = self.functions.get(f"{target}.{func.attr}")
                    if info is not None:
                        return info
        return None

    def build_edges(self) -> None:
        self.edges = []
        for info in self.functions.values():
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Call):
                    callee = self.resolve_call(sub, info)
                    if callee is not None:
                        self.edges.append(CallEdge(
                            caller=info.qualname, callee=callee.qualname,
                            file=info.file, line=sub.lineno))

    # -- rank-sensitivity taint ----------------------------------------
    def propagate_taint(self, max_rounds: int = 32) -> None:
        """Fixpoint over per-function taint summaries.

        Sources are ``comm.rank`` / ``comm.size`` reads.  Taint flows
        through local assignments, into callee parameters at call
        sites, and back out of tainted returns.
        """
        for info in self.functions.values():
            info.tainted_params = set()
            info.returns_tainted = False
            info.rank_sensitive = info.reads_rank
        for _ in range(max_rounds):
            changed = False
            for info in self.functions.values():
                if self._taint_one(info):
                    changed = True
            if not changed:
                break

    def _taint_one(self, info: FunctionInfo) -> bool:
        tainted: set[str] = set(info.tainted_params)
        changed = False

        def expr_tainted(node: ast.expr) -> bool:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr in _RANK_ATTRS:
                    return True
                if isinstance(sub, ast.Name) and sub.id in tainted:
                    return True
                if isinstance(sub, ast.Call):
                    callee = self.resolve_call(sub, info)
                    if callee is not None and callee.returns_tainted:
                        return True
            return False

        # A few sweeps so taint introduced late in the body reaches
        # earlier-scanned uses within the same round.
        for _ in range(3):
            grew = False
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Assign) and expr_tainted(sub.value):
                    for tgt in sub.targets:
                        for n in ast.walk(tgt):
                            if isinstance(n, ast.Name) and n.id not in tainted:
                                tainted.add(n.id)
                                grew = True
                elif isinstance(sub, ast.AugAssign) and expr_tainted(sub.value):
                    if (isinstance(sub.target, ast.Name)
                            and sub.target.id not in tainted):
                        tainted.add(sub.target.id)
                        grew = True
            if not grew:
                break

        returns_tainted = info.returns_tainted
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                if expr_tainted(sub.value):
                    returns_tainted = True
            elif isinstance(sub, ast.Call):
                callee = self.resolve_call(sub, info)
                if callee is None:
                    continue
                for pos, arg in enumerate(sub.args):
                    if pos < len(callee.params) and expr_tainted(arg):
                        if callee.params[pos] not in callee.tainted_params:
                            callee.tainted_params.add(callee.params[pos])
                            changed = True
                for kw in sub.keywords:
                    if (kw.arg is not None and kw.arg in callee.params
                            and expr_tainted(kw.value)
                            and kw.arg not in callee.tainted_params):
                        callee.tainted_params.add(kw.arg)
                        changed = True

        rank_sensitive = info.reads_rank or bool(tainted) or returns_tainted
        if (tainted != info.tainted_params
                or returns_tainted != info.returns_tainted
                or rank_sensitive != info.rank_sensitive):
            info.tainted_params = tainted
            info.returns_tainted = returns_tainted
            info.rank_sensitive = rank_sensitive
            changed = True
        return changed

    # -- queries --------------------------------------------------------
    def reachable_from(self, qualname: str) -> set[str]:
        """Call-graph closure from one function (inclusive)."""
        out_edges: dict[str, list[str]] = {}
        for e in self.edges:
            out_edges.setdefault(e.caller, []).append(e.callee)
        seen = {qualname}
        frontier = [qualname]
        while frontier:
            cur = frontier.pop()
            for nxt in out_edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def load_project(paths: Iterable[str]) -> Project:
    """Parse files and directory trees into a linked Project."""
    project = Project()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for fn in sorted(filenames):
                    full = os.path.join(dirpath, fn)
                    if fn.endswith(".py") and not _is_library_file(full):
                        project.add_file(full)
        elif not _is_library_file(path):
            project.add_file(path)
    project.build_edges()
    project.propagate_taint()
    return project
