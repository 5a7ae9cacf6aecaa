"""Per-rank abstract interpretation of SPMD functions.

The core of the whole-program verifier: each communicator-taking
function is symbolically executed once **per abstract rank** against a
small concrete world (``world_size=2`` by default).  With the rank a
known constant, ``comm.rank``-dependent branches constant-fold into
decidable control flow, so the execution of rank 0 and rank 1 genuinely
diverge exactly where the program's communication diverges — the
MUST-style insight that makes cross-rank matching checkable before the
program runs.

Each run yields a :class:`Trace` — the ordered sequence of
:class:`~repro.sanitize.match.CommEvent` (collectives with their root
signature, point-to-point sends and receives with constant-folded
dest/source and tag) plus a **completeness** bit.  The trace is complete
only when the interpreter never had to guess about communication: a
loop with an unknown trip count that performs communication, an opaque
call that receives a communicator, an unmodeled communicator method, a
nonblocking ``irecv`` (it completes at a ``wait`` no trace models), or a
blown call-depth/recursion limit all poison completeness.  The matcher
in :mod:`repro.sanitize.verify` only reports cross-rank findings
(collective mismatches, deadlocks, unmatched point-to-point) from
complete traces — incompleteness silences the cross-rank rules rather
than producing guesses.

Abstract values are deliberately few: constants (folded through
arithmetic, comparisons, and short-circuit logic), communicators,
carrier objects (an entry parameter whose ``.comm`` the body reads —
the ``sthosvd(tensor, ...)`` shape), and :class:`Buffer` — an
alias-tracked opaque object.  Every opaque call returns a *fresh*
buffer, so ``view = payload`` aliases and ``send(view, copy=False)``
marks the one shared buffer moved; any later attribute access,
subscript, or opaque-call use of it — in the caller, three frames up —
is a ``use-after-move`` finding.  Ownership findings are local facts
and are reported even from incomplete traces.

Decisions the interpreter cannot make are resolved *uniformly*: an
undecidable branch takes the then-branch on every rank, so abstraction
alone can never manufacture cross-rank divergence.  The one exception is
a condition that reads the rank (``comm.rank``, ``state.world_rank``, a
parameter named ``rank``, or a name the function bound from such an
expression, ``flag = np.any(comm.rank == 0)``): a collective under it,
in either branch, is a ``collective-mismatch`` finding even when the
interpreter cannot decide it, because ranks that decide it differently
disagree.

A loop of unknown trip count runs once; when that pass moved a buffer,
the body runs a second time for findings only, so a buffer moved on one
iteration and not rebound before the next is a ``use-after-move``.
"""

from __future__ import annotations

import ast
import itertools
import operator
from dataclasses import dataclass, field

from .callgraph import FunctionInfo, Project
from .diagnostics import ERROR, CallSite, Diagnostic
from .match import CommEvent, rank_guarded

__all__ = ["Trace", "run_rank"]

# Communicator methods modeled as primitives.
_COLLECTIVE_OPS = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "reduce_scatter",
})
_SUBCOMM_OPS = frozenset({"split", "dup", "shrink"})
# Communicator methods that perform no communication: instrumentation
# and introspection helpers, safe to treat as inert.
_BENIGN_OPS = frozenset({"context", "revoke"})
_P2P_OPS = frozenset({"send", "isend", "recv", "irecv", "sendrecv"})
# (positional index, keyword) of the interesting arguments.
_ROOT_ARG = {"bcast": 1, "reduce": 1, "gather": 1, "scatter": 1}
_DEST_ARG = {"send": 1, "isend": 1, "sendrecv": 1}
_TAG_ARG = {"send": 2, "isend": 2, "sendrecv": 2, "recv": 1, "irecv": 1}
_SRC_ARG = {"recv": 0, "irecv": 0}
# Names that read as "this process's rank".
_RANK_NAMES = frozenset({"rank", "world_rank", "my_rank"})

# The env key of the names a function bound from rank-reading
# expressions (no identifier contains "<").
_RANK_BOUND = "<rank-bound>"

_MAX_UNROLL = 64
_MAX_DEPTH = 16

_buffer_ids = itertools.count(1)


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
UNKNOWN = object()  # top: a value the interpreter knows nothing about


@dataclass(frozen=True)
class Const:
    value: object


@dataclass
class Buffer:
    """An alias-tracked opaque object (array, list, result, ...); its
    attributes are buffers too, so ``state.buf`` can be moved."""

    moved_at: CallSite | None = None
    moved_op: str = ""
    bid: int = field(default_factory=lambda: next(_buffer_ids))
    attrs: dict = field(default_factory=dict)
    nullable: bool = False  # an attribute read: it may be None


@dataclass
class CommVal:
    """A communicator with a concrete rank/size binding."""

    rank: int
    size: int
    opaque: bool = False  # a split/dup product: events unmodelable


@dataclass
class CarrierVal:
    """An object whose ``.comm`` attribute is the communicator."""

    comm: CommVal
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FuncRef:
    info: FunctionInfo


@dataclass(frozen=True)
class Prim:
    """A communicator method bound and ready to call."""

    comm: CommVal
    op: str  # method name, or "?" for an unmodeled comm attribute


# ----------------------------------------------------------------------
# Traces (of match.CommEvent)
# ----------------------------------------------------------------------
@dataclass
class Trace:
    rank: int
    events: list = field(default_factory=list)
    complete: bool = True
    notes: list = field(default_factory=list)

    def poison(self, reason: str) -> None:
        self.complete = False
        if reason not in self.notes:
            self.notes.append(reason)


# Control-flow signals.
class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _FuncExit(Exception):
    """An (abstract) raise: unwinds the current function."""


def _reads_rank(node: ast.expr, env) -> bool:
    """Whether an expression names the rank (``comm.rank``, ``rank``), or
    a name of ``env`` bound from one."""
    bound = env.get(_RANK_BOUND, ())
    return any(isinstance(sub, ast.Name)
               and (sub.id in _RANK_NAMES or sub.id in bound)
               or isinstance(sub, ast.Attribute) and sub.attr in _RANK_NAMES
               for sub in ast.walk(node))


def _note_binding(targets, value: ast.expr, env, *, update=False) -> None:
    """Record in ``env`` whether ``targets`` now hold a rank-derived
    value: bound from an expression that reads the rank, or (``update``,
    an augmented assignment) already one."""
    names = {sub.id for target in targets for sub in ast.walk(target)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    bound = frozenset(env.get(_RANK_BOUND, ()))
    if _reads_rank(value, env):
        env[_RANK_BOUND] = bound | names
    elif not update:
        env[_RANK_BOUND] = bound - names


# ----------------------------------------------------------------------
# Interpreter
# ----------------------------------------------------------------------
class RankInterp:
    """Symbolic executor for one abstract rank of one entry function."""

    def __init__(self, project: Project, rank: int, world_size: int) -> None:
        self.project = project
        self.rank = rank
        self.world = world_size
        self.trace = Trace(rank=rank)
        self.findings: list[Diagnostic] = []
        self._reported: set[tuple] = set()
        self.call_stack: list[str] = []
        self.moves = 0  # buffers moved so far

    # -- entry ----------------------------------------------------------
    def run(self, entry: FunctionInfo) -> Trace:
        env: dict[str, object] = {}
        comm = CommVal(rank=self.rank, size=self.world)
        for p in entry.params:
            if p in entry.comm_params:
                env[p] = comm
            elif p in entry.comm_carriers:
                env[p] = CarrierVal(comm=comm)
            else:
                env[p] = self._default_value(entry, p)
        self._exec_function(entry, env)
        return self.trace

    def _default_value(self, info: FunctionInfo, param: str):
        node = info.defaults.get(param)
        if node is not None:
            try:
                return Const(ast.literal_eval(node))
            except (ValueError, SyntaxError):
                return Buffer()
        return Buffer()

    # -- function execution ---------------------------------------------
    def _exec_function(self, info: FunctionInfo, env: dict):
        if any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(info.node)):
            self.trace.poison(
                f"generator {info.qualname} treated as opaque")
            return Buffer()
        self.call_stack.append(info.qualname)
        prev = getattr(self, "_info", None)
        self._info = info
        try:
            self._exec_block(info.node.body, env)
            return Const(None)
        except _Return as ret:
            return ret.value
        finally:
            self._info = prev
            self.call_stack.pop()

    def _site(self, node: ast.AST) -> CallSite:
        info = getattr(self, "_info", None)
        return CallSite(
            file=info.file if info else "<unknown>",
            line=getattr(node, "lineno", 0),
            function=info.name if info else "?",
        )

    # -- statements ------------------------------------------------------
    def _exec_block(self, stmts, env) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt, env) -> None:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for tgt in stmt.targets:
                self._bind(tgt, value, env)
            _note_binding(stmt.targets, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, env), env)
                _note_binding([stmt.target], stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            _note_binding([stmt.target], stmt.value, env, update=True)
            # In-place update: a *use* of the current binding.
            cur = self._eval_target_load(stmt.target, env)
            self._check_use(cur, self._site(stmt), "updated in place")
            rhs = self._eval(stmt.value, env)
            if isinstance(cur, Const) and isinstance(rhs, Const):
                folded = self._fold_binop(stmt.op, cur, rhs)
                self._bind(stmt.target, folded, env)
            else:
                self._bind(stmt.target, cur if isinstance(cur, Buffer)
                           else UNKNOWN, env)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
        elif isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, env)
        elif isinstance(stmt, ast.Return):
            value = (self._eval(stmt.value, env)
                     if stmt.value is not None else Const(None))
            raise _Return(value)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Raise):
            raise _FuncExit()
        elif isinstance(stmt, ast.Try):
            # Handlers are skipped: the no-exception path is the one the
            # cross-rank protocol is written for.
            try:
                self._exec_block(stmt.body, env)
                self._exec_block(stmt.orelse, env)
            finally:
                self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, ctx, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = self.project.functions.get(
                f"{self._info.module}.{stmt.name}") if self._info else None
            env[stmt.name] = FuncRef(info) if info else UNKNOWN
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    env.pop(tgt.id, None)
        # Anything else (pass, import, class, match, ...) is skipped: it
        # executes uniformly on every rank.

    def _exec_if(self, stmt, env) -> None:
        cond = self._truthy(self._eval(stmt.test, env))
        if cond is False:
            self._exec_block(stmt.orelse, env)
            return
        # True, or undecidable: every rank takes the then-branch
        # uniformly, so abstraction never fabricates divergence.
        before = len(self.trace.events)
        ranked = cond is None and _reads_rank(stmt.test, env)
        try:
            self._exec_block(stmt.body, env)
        finally:
            if ranked:
                self._rank_guard(stmt.test, self.trace.events[before:]
                                 + self._dry_run(stmt.orelse, env))

    def _rank_guard(self, test, events) -> None:
        """A collective among ``events``, under the undecidable condition
        ``test`` that reads the rank, is a finding."""
        for ev in events:
            if ev.kind == "collective":
                self.findings.append(rank_guarded(ev, self._site(test)))
                return

    def _dry_run(self, body, env) -> list:
        """Execute ``body`` for findings only: the events it would emit
        are returned, and its trace and bindings are thrown away."""
        trace, self.trace = self.trace, Trace(rank=self.rank)
        try:
            self._exec_block(body, dict(env))
        except (_Break, _Continue, _Return, _FuncExit):
            pass
        finally:
            trace, self.trace = self.trace, trace
        return trace.events

    def _exec_for(self, stmt, env) -> None:
        items = self._iterable_items(stmt.iter, env)
        if items is None:
            before, moves, broke = len(self.trace.events), self.moves, False
            self._bind(stmt.target, UNKNOWN, env)
            try:
                self._exec_block(stmt.body, env)
            except _Break:
                broke = True
            except _Continue:
                pass
            if len(self.trace.events) != before:
                self.trace.poison(
                    f"loop with unknown trip count performs communication "
                    f"({self._site(stmt)})")
            if not broke and self.moves != moves:
                self._dry_run(stmt.body, env)  # a move the next trip reuses
            self._exec_block(stmt.orelse, env)
            return
        broke = False
        for item in items:
            self._bind(stmt.target, item, env)
            try:
                self._exec_block(stmt.body, env)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke:
            self._exec_block(stmt.orelse, env)

    def _exec_while(self, stmt, env) -> None:
        for _ in range(_MAX_UNROLL):
            cond = self._truthy(self._eval(stmt.test, env))
            if cond is False:
                self._exec_block(stmt.orelse, env)
                return
            before, moves = len(self.trace.events), self.moves
            try:
                self._exec_block(stmt.body, env)
            except _Break:
                return
            except _Continue:
                pass
            if cond is None:
                # Undecidable condition: one uniform iteration.
                if len(self.trace.events) != before:
                    self.trace.poison(
                        f"while-loop with undecidable condition performs "
                        f"communication ({self._site(stmt)})")
                if _reads_rank(stmt.test, env):
                    self._rank_guard(stmt.test, self.trace.events[before:])
                if self.moves != moves:
                    self._dry_run(stmt.body, env)
                return
        self.trace.poison(
            f"while-loop exceeded {_MAX_UNROLL} unrolled iterations "
            f"({self._site(stmt)})")

    def _iterable_items(self, node: ast.expr, env):
        """Concrete iteration items, or None when the trip is unknown."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname == "range" and not node.keywords:
                args = [self._eval(a, env) for a in node.args]
                if all(isinstance(a, Const) and isinstance(a.value, int)
                       for a in args):
                    r = range(*[a.value for a in args])
                    if len(r) <= _MAX_UNROLL:
                        return [Const(i) for i in r]
                return None
            if fname == "enumerate" and len(node.args) == 1:
                inner = self._iterable_items(node.args[0], env)
                if inner is not None:
                    return [_pair(Const(i), item)
                            for i, item in enumerate(inner)]
                return None
        value = self._eval(node, env)
        if isinstance(value, Const) and isinstance(
                value.value, (list, tuple, range)):
            seq = list(value.value)
            if len(seq) <= _MAX_UNROLL:
                return [Const(v) for v in seq]
        if isinstance(value, tuple):
            return list(value)
        return None

    # -- binding ---------------------------------------------------------
    def _bind(self, target, value, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            parts = None
            if isinstance(value, tuple) and len(value) == len(elts):
                parts = list(value)
            elif (isinstance(value, Const)
                    and isinstance(value.value, (list, tuple))
                    and len(value.value) == len(elts)):
                parts = [Const(v) for v in value.value]
            for i, elt in enumerate(elts):
                if isinstance(elt, ast.Starred):
                    self._bind(elt.value, UNKNOWN, env)
                else:
                    self._bind(elt, parts[i] if parts else UNKNOWN, env)
        elif isinstance(target, ast.Attribute):
            base = self._eval(target.value, env)
            if isinstance(base, CarrierVal):
                base.attrs[target.attr] = value
            elif isinstance(base, Buffer):
                self._check_use(base, self._site(target), "written through")
                base.attrs[target.attr] = value
        elif isinstance(target, ast.Subscript):
            base = self._eval(target.value, env)
            self._eval(target.slice, env)
            if isinstance(base, Buffer):
                self._check_use(base, self._site(target), "written into")

    def _eval_target_load(self, target, env):
        """Current value of an AugAssign target, as a load."""
        if isinstance(target, ast.Name):
            return env.get(target.id, UNKNOWN)
        return self._eval(target, env)

    # -- expressions ------------------------------------------------------
    def _eval(self, node, env):
        if node is None:
            return Const(None)
        method = getattr(
            self, f"_eval_{type(node).__name__.lower()}", None)
        if method is not None:
            return method(node, env)
        # Unmodeled expression: evaluate children for use-checks.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
        return UNKNOWN

    def _eval_constant(self, node, env):
        return Const(node.value)

    def _eval_name(self, node, env):
        if node.id in env:
            return env[node.id]
        info = self._info
        if info is not None:
            # Same-module function, imported function, module constant.
            fn = self.project.functions.get(f"{info.module}.{node.id}")
            if fn is not None:
                return FuncRef(fn)
            target = self.project.imports.get(info.module, {}).get(node.id)
            if target is not None:
                for cand in self.project.by_name.get(
                        target.split(".")[-1], ()):
                    if target.endswith(f"{cand.module}.{cand.name}"):
                        return FuncRef(cand)
            consts = self.project.module_consts.get(info.module, {})
            if node.id in consts:
                return Const(consts[node.id])
        if node.id in ("True", "False", "None"):
            return Const({"True": True, "False": False, "None": None}
                         [node.id])
        return UNKNOWN

    def _eval_attribute(self, node, env):
        base = self._eval(node.value, env)
        attr = node.attr
        if isinstance(base, CommVal):
            if attr in ("rank", "world_rank"):
                return Const(base.rank)
            if attr == "size":
                return Const(base.size)
            if attr in (_COLLECTIVE_OPS | _P2P_OPS | _SUBCOMM_OPS
                        | _BENIGN_OPS):
                return Prim(base, attr)
            return Prim(base, "?")
        if isinstance(base, CarrierVal):
            if attr == "comm":
                return base.comm
            return base.attrs.setdefault(attr, Buffer())
        if isinstance(base, Buffer):
            self._check_use(base, self._site(node), f"read (.{attr})")
            return base.attrs.setdefault(attr, Buffer(nullable=True))
        return UNKNOWN

    def _eval_subscript(self, node, env):
        base = self._eval(node.value, env)
        idx = self._eval(node.slice, env)
        if isinstance(base, Buffer):
            self._check_use(base, self._site(node), "indexed")
            return UNKNOWN
        if (isinstance(base, Const) and isinstance(idx, Const)):
            try:
                return Const(base.value[idx.value])
            except Exception:
                return UNKNOWN
        if isinstance(base, tuple) and isinstance(idx, Const):
            try:
                return base[idx.value]
            except Exception:
                return UNKNOWN
        return UNKNOWN

    def _eval_tuple(self, node, env):
        values = tuple(self._eval(e, env) for e in node.elts)
        if all(isinstance(v, Const) for v in values):
            return Const(tuple(v.value for v in values))
        return values

    _eval_list = _eval_tuple

    def _eval_starred(self, node, env):
        return self._eval(node.value, env)

    def _eval_dict(self, node, env):
        for k, v in zip(node.keys, node.values):
            if k is not None:
                self._eval(k, env)
            self._eval(v, env)
        return Buffer()

    def _eval_set(self, node, env):
        for e in node.elts:
            self._eval(e, env)
        return Buffer()

    def _eval_lambda(self, node, env):
        return UNKNOWN

    def _eval_await(self, node, env):
        return self._eval(node.value, env)

    def _eval_namedexpr(self, node, env):
        value = self._eval(node.value, env)
        self._bind(node.target, value, env)
        return value

    _UNOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos,
              ast.Not: operator.not_, ast.Invert: operator.invert}

    def _eval_unaryop(self, node, env):
        val = self._eval(node.operand, env)
        if isinstance(val, Const):
            try:
                return Const(self._UNOPS[type(node.op)](val.value))
            except Exception:
                return UNKNOWN
        return UNKNOWN

    _BINOPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.FloorDiv: lambda a, b: a // b,
        ast.Mod: lambda a, b: a % b,
        ast.Pow: lambda a, b: a ** b,
        ast.LShift: lambda a, b: a << b,
        ast.RShift: lambda a, b: a >> b,
        ast.BitOr: lambda a, b: a | b,
        ast.BitAnd: lambda a, b: a & b,
        ast.BitXor: lambda a, b: a ^ b,
    }

    def _fold_binop(self, op, left: Const, right: Const):
        fn = self._BINOPS.get(type(op))
        if fn is None:
            return UNKNOWN
        try:
            return Const(fn(left.value, right.value))
        except Exception:
            return UNKNOWN

    def _eval_binop(self, node, env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(left, Const) and isinstance(right, Const):
            return self._fold_binop(node.op, left, right)
        return UNKNOWN

    _CMPOPS = {
        ast.Eq: lambda a, b: a == b,
        ast.NotEq: lambda a, b: a != b,
        ast.Lt: lambda a, b: a < b,
        ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b,
        ast.GtE: lambda a, b: a >= b,
        ast.In: lambda a, b: a in b,
        ast.NotIn: lambda a, b: a not in b,
    }

    def _eval_compare(self, node, env):
        left = self._eval(node.left, env)
        result = True
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator, env)
            verdict = self._compare_one(op, left, right)
            if verdict is None:
                result = None
            elif verdict is False:
                return Const(False)
            left = right
        return Const(True) if result is True else UNKNOWN

    def _compare_one(self, op, left, right):
        if isinstance(op, (ast.Is, ast.IsNot)):
            if isinstance(left, Const) and isinstance(right, Const):
                same = left.value is right.value
                return same if isinstance(op, ast.Is) else not same
            # A buffer/communicator is definitely not None; an attribute
            # read off a buffer may be.
            for a, b in ((left, right), (right, left)):
                if (isinstance(b, Const) and b.value is None
                        and isinstance(a, (Buffer, CommVal, CarrierVal))
                        and not getattr(a, "nullable", False)):
                    return isinstance(op, ast.IsNot)
            return None
        if isinstance(left, Const) and isinstance(right, Const):
            fn = self._CMPOPS.get(type(op))
            if fn is None:
                return None
            try:
                return bool(fn(left.value, right.value))
            except Exception:
                return None
        return None

    def _eval_boolop(self, node, env):
        is_and = isinstance(node.op, ast.And)
        last = None
        for value in node.values:
            val = self._eval(value, env)
            last = val
            t = self._truthy(val)
            if t is None:
                # Whether the remaining operands evaluate is unknown;
                # skipping them uniformly on every rank stays sound.
                return UNKNOWN
            if is_and and t is False:
                return val
            if not is_and and t is True:
                return val
        return last if last is not None else Const(is_and)

    def _eval_ifexp(self, node, env):
        cond = self._truthy(self._eval(node.test, env))
        if cond is True:
            return self._eval(node.body, env)
        if cond is False:
            return self._eval(node.orelse, env)
        self._eval(node.body, env)
        return UNKNOWN

    def _eval_listcomp(self, node, env):
        # A generator expression is evaluated eagerly too: the dominant
        # use is an immediately-consumed sum(...)/list(...); a stored
        # lazy generator is mis-modeled, which at worst poisons
        # completeness via its comm events.
        return self._eval_comprehension(node, node.elt, env)

    _eval_setcomp = _eval_generatorexp = _eval_listcomp

    def _eval_dictcomp(self, node, env):
        return self._eval_comprehension(node, node.value, env)

    def _eval_comprehension(self, node, elt, env):
        results = []

        def rec(gens, scope):
            if not gens:
                if isinstance(node, ast.DictComp):
                    self._eval(node.key, scope)
                results.append(self._eval(elt, scope))
                return
            gen = gens[0]
            items = self._iterable_items(gen.iter, scope)
            if items is None:
                before = len(self.trace.events)
                inner = dict(scope)
                self._bind(gen.target, UNKNOWN, inner)
                for cond in gen.ifs:
                    self._eval(cond, inner)
                rec(gens[1:], inner)
                if len(self.trace.events) != before:
                    self.trace.poison(
                        f"comprehension over unknown iterable performs "
                        f"communication ({self._site(node)})")
                return
            for item in items:
                inner = dict(scope)
                self._bind(gen.target, item, inner)
                take = True
                for cond in gen.ifs:
                    t = self._truthy(self._eval(cond, inner))
                    if t is False:
                        take = False
                        break
                if take:
                    rec(gens[1:], inner)

        rec(list(node.generators), dict(env))
        if results and all(isinstance(r, Const) for r in results):
            return Const([r.value for r in results])
        return Buffer()

    # -- calls ------------------------------------------------------------
    _PURE_BUILTINS = {
        "len": len, "int": int, "float": float, "str": str, "bool": bool,
        "abs": abs, "min": min, "max": max, "sum": sum, "sorted": sorted,
        "tuple": tuple, "list": list, "round": round, "divmod": divmod,
    }

    def _eval_call(self, node, env):
        # Project-resolved callee first (handles self.method and
        # imported names without evaluating the func expression).
        callee = None
        if self._info is not None:
            callee = self.project.resolve_call(node, self._info)
        if callee is not None:
            return self._call_known(node, callee, env)

        func = self._eval(node.func, env)
        if isinstance(func, Prim):
            return self._call_prim(node, func, env)
        if isinstance(func, FuncRef) and func.info is not None:
            return self._call_known(node, func.info, env)

        # Pure builtins fold when every argument is constant.
        if (isinstance(node.func, ast.Name)
                and node.func.id in self._PURE_BUILTINS
                and not node.keywords):
            args = [self._eval(a, env) for a in node.args]
            if all(isinstance(a, Const) for a in args):
                try:
                    return Const(self._PURE_BUILTINS[node.func.id](
                        *[a.value for a in args]))
                except Exception:
                    return UNKNOWN
            self._check_call_args(node, args)
            return Buffer()

        return self._call_opaque(node, env)

    def _call_prim(self, node, prim: Prim, env):
        comm = prim.comm
        op = prim.op
        site = self._site(node)
        args = [self._eval(a, env) for a in node.args
                if not isinstance(a, ast.Starred)]
        kwargs = {kw.arg: self._eval(kw.value, env)
                  for kw in node.keywords if kw.arg is not None}
        for val in list(args) + list(kwargs.values()):
            if isinstance(val, Buffer) and val.moved_at is not None:
                self._check_use(val, site, f"passed to {op}()")

        if comm.opaque:
            self.trace.poison(
                f"communication on a split/dup subcommunicator is not "
                f"modeled ({site})")
            return Buffer()
        if op == "?":
            self.trace.poison(
                f"unmodeled communicator method ({site})")
            return Buffer()
        if op in _BENIGN_OPS:
            return UNKNOWN

        def grab(pos_map, keyword):
            if keyword in kwargs:
                return kwargs[keyword]
            pos = pos_map.get(op)
            if pos is not None and len(args) > pos:
                return args[pos]
            return None

        if op in _COLLECTIVE_OPS:
            root_val = grab(_ROOT_ARG, "root")
            root = (root_val.value if isinstance(root_val, Const) else
                    None if root_val is None else "?")
            if root == "?":
                self.trace.poison(
                    f"collective {op}() with undecidable root ({site})")
            self.trace.events.append(CommEvent(
                kind="collective", op=op, site=site,
                signature=(("root", root),)))
            if op == "barrier":
                return Const(None)
            return Buffer()

        if op in _SUBCOMM_OPS:
            self.trace.events.append(CommEvent(
                kind="collective", op=op, site=site))
            return CommVal(rank=comm.rank, size=comm.size, opaque=True)

        # Point-to-point.
        def int_or_none(val, what):
            if isinstance(val, Const) and isinstance(val.value, int):
                return val.value
            self.trace.poison(
                f"{op}() with undecidable {what} ({site})")
            return None

        def fold_tag():  # an omitted tag is 0
            tag = grab(_TAG_ARG, "tag")
            return 0 if tag is None else int_or_none(tag, "tag")

        if op in ("send", "isend", "sendrecv"):
            payload = args[0] if args else kwargs.get("obj")
            peer_kw = "partner" if op == "sendrecv" else "dest"
            dest = int_or_none(grab(_DEST_ARG, peer_kw), peer_kw)
            tag = fold_tag()
            moved = False
            copy = kwargs.get("copy")
            if isinstance(copy, Const) and copy.value is False:
                moved = True
                if isinstance(payload, Buffer):
                    if payload.moved_at is None:
                        payload.moved_at = site
                        payload.moved_op = op
                        self.moves += 1
            self.trace.events.append(CommEvent(
                kind="send", op=op, site=site, peer=dest, tag=tag,
                moved=moved))
        if op == "irecv":
            # A posted receive completes at its wait(), which traces do
            # not model: stay quiet rather than block it here.
            self.trace.poison(f"nonblocking irecv() ({site})")
        if op in ("recv", "irecv", "sendrecv"):
            if op == "sendrecv":
                source = int_or_none(grab(_DEST_ARG, "partner"), "partner")
            else:
                source = int_or_none(grab(_SRC_ARG, "source"), "source")
            self.trace.events.append(CommEvent(
                kind="recv", op=op, site=site, peer=source, tag=fold_tag()))
        return Buffer()

    def _call_known(self, node, callee: FunctionInfo, env):
        if callee.qualname in self.call_stack:
            return self._call_opaque(node, env, note="recursive call")
        if len(self.call_stack) >= _MAX_DEPTH:
            self.trace.poison(
                f"call depth limit at {self._site(node)}")
            return self._call_opaque(node, env, note=None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            # *args/**kwargs at the call site: bindings undecidable.
            return self._call_opaque(
                node, env, note="star-args call to project function")

        args = [self._eval(a, env) for a in node.args]
        kwargs = {kw.arg: self._eval(kw.value, env) for kw in node.keywords}

        params = list(callee.params)
        callee_env: dict[str, object] = {}
        pos_params = params
        if (isinstance(node.func, ast.Attribute) and params
                and params[0] == "self"
                and self._info is not None):
            # Bound-method call: the receiver is ``self``.
            recv = self._eval(node.func.value, env)
            callee_env["self"] = recv
            pos_params = params[1:]
        for name, val in zip(pos_params, args):
            callee_env[name] = val
        for name, val in kwargs.items():
            if name in params:
                callee_env[name] = val
        for name in params:
            if name not in callee_env:
                callee_env[name] = self._default_value(callee, name)
        return self._exec_function(callee, callee_env)

    def _call_opaque(self, node, env, note: str | None = None):
        args = [self._eval(a.value if isinstance(a, ast.Starred) else a, env)
                for a in node.args]
        kwargs = [self._eval(kw.value, env) for kw in node.keywords]
        self._check_call_args(node, args + kwargs)
        if note:
            has_comm = any(
                isinstance(v, (CommVal, CarrierVal))
                for v in args + kwargs)
            if has_comm:
                self.trace.poison(
                    f"{note} with a communicator argument "
                    f"({self._site(node)})")
        return Buffer()

    def _check_call_args(self, node, values) -> None:
        site = self._site(node)
        label = ast.unparse(node.func)
        for val in values:
            if isinstance(val, Buffer) and val.moved_at is not None:
                self._check_use(val, site, f"passed to {label}()")
            if isinstance(val, (CommVal, CarrierVal)):
                self.trace.poison(
                    f"opaque call {label}() receives a communicator "
                    f"({site})")

    # -- helpers ----------------------------------------------------------
    def _truthy(self, val):
        if isinstance(val, Const):
            try:
                return bool(val.value)
            except Exception:
                return None
        return None

    def _check_use(self, val, site: CallSite, how: str) -> None:
        if not isinstance(val, Buffer) or val.moved_at is None:
            return
        key = (val.bid, site.file, site.line)
        if key in self._reported:
            return
        self._reported.add(key)
        moved = val.moved_at
        self.findings.append(Diagnostic(
            kind="use-after-move",
            message=(
                f"buffer is {how} after being moved by "
                f"{val.moved_op}(..., copy=False) at {moved} "
                f"(in {moved.function}); the receiver owns it now — "
                f"copy before reuse or send with copy=True"),
            severity=ERROR,
            file=site.file,
            line=site.line,
            rank=self.rank,
            extra={"moved_at": str(moved), "function": site.function},
        ))


def _pair(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const((a.value, b.value))
    return (a, b)


def run_rank(project: Project, entry: FunctionInfo, rank: int,
             world_size: int) -> tuple[Trace, list[Diagnostic]]:
    """Execute one entry function as one abstract rank."""
    interp = RankInterp(project, rank, world_size)
    try:
        interp.run(entry)
    except _FuncExit:
        pass
    except RecursionError:
        interp.trace.poison("python recursion limit during interpretation")
    return interp.trace, interp.findings
