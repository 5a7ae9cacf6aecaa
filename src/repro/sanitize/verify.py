"""``repro verify`` — whole-program SPMD verification before a run.

The one static SPMD checker: the verifier loads the whole program
(:mod:`repro.sanitize.callgraph`), finds every function that takes or
carries a communicator, and symbolically executes each one per abstract
rank (:mod:`repro.sanitize.absint`).  The resulting per-rank
traces are scheduled against each other, and the rule book the runtime
sanitizer judges live ranks with (:mod:`repro.sanitize.match`) says what
each rendezvous and each stuck state means: ``collective-mismatch``,
``deadlock``, ``tag-mismatch`` and ``message-leak``, catalogued with
their live counterparts in ``docs/sanitizer.md``.  The interpreter adds
``use-after-move``: a buffer moved by ``send(..., copy=False)`` and used
afterwards, tracked through aliases, attributes, loop iterations, call
boundaries and returns — and ``collective-mismatch`` for a collective
under a condition that reads the rank but cannot be decided.

One check stays per function, ``tag-mismatch`` over literal tags: a
function whose literal send tags and literal receive tags disagree hangs
both sides whatever its peers are, and a peer is often a parameter the
interpreter cannot fold, which leaves the trace incomplete and the
matcher silent.

Cross-rank findings are only reported from **complete** traces (see
:mod:`repro.sanitize.absint`): when the interpreter had to guess about
communication, it stays silent rather than guessing wrong.  Ownership
findings are local facts and always surface.  A ``# repro-lint:
allow(<kind>)`` (or ``skip``) pragma on a finding's line suppresses it.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .absint import Trace, run_rank
from .callgraph import FunctionInfo, Project, load_project
from .diagnostics import CallSite, Diagnostic, Suppressions
from .match import (CommEvent, collective_mismatch, judge_stuck,
                    literal_tag_mismatch, slot)

__all__ = [
    "EntryReport",
    "VerifyResult",
    "verify_paths",
    "verify_project",
    "match_traces",
    "comm_graph_json",
    "comm_graph_dot",
    "write_comm_graph",
    "default_verify_roots",
]

DEFAULT_WORLD_SIZE = 2

# MPI-style collective method names, as the comm graph lists them.
_COLLECTIVES = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "reduce_scatter", "split", "dup",
})
# Receiver-chain roots that make a ``.reduce``/``.split``-style call
# clearly *not* a communicator operation (np.add.reduce, "a,b".split).
_NON_COMM_ROOTS = frozenset({
    "np", "numpy", "scipy", "math", "functools", "operator", "itertools",
    "os", "re", "str", "string",
})
# Position of the ``tag`` argument of each point-to-point call.
_TAG_POSITIONS = {"send": 2, "isend": 2, "sendrecv": 2, "recv": 1, "irecv": 1}
_SENDERS = frozenset({"send", "isend", "sendrecv"})
_RECEIVERS = frozenset({"recv", "irecv", "sendrecv"})


@dataclass
class EntryReport:
    """One analyzed communicator-taking function."""

    entry: FunctionInfo
    traces: list[Trace]
    findings: list[Diagnostic] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(t.complete for t in self.traces)


@dataclass
class VerifyResult:
    """Whole-program verification outcome: per-driver reports + findings."""

    project: Project
    reports: list[EntryReport]
    findings: list[Diagnostic]

    @property
    def functions_analyzed(self) -> int:
        return len(self.reports)


# ----------------------------------------------------------------------
# Cross-rank trace matching
# ----------------------------------------------------------------------
def match_traces(traces: Sequence[Trace],
                 entry: FunctionInfo) -> list[Diagnostic]:
    """Schedule the ranks' traces against each other, MUST-style.

    Sends are buffered (eager), receives block until a matching send
    is in flight, collectives rendezvous.  The schedule runs until every
    rank terminates or none can advance; the rule book
    (:mod:`repro.sanitize.match`) judges each rendezvous and the stuck
    state.  Only called on complete traces.
    """
    world = len(traces)
    pc = [0] * world
    in_flight: dict[tuple[int, int, int], list[CommEvent]] = {}
    calls = 0
    extra = {"entry": entry.qualname}

    def current(r: int) -> CommEvent | None:
        evs = traces[r].events
        return evs[pc[r]] if pc[r] < len(evs) else None

    while True:  # each pass advances a rank, or returns
        progress = False
        for r in range(world):
            ev = current(r)
            if ev is not None and ev.kind == "send":
                in_flight.setdefault((r, ev.peer, ev.tag), []).append(ev)
                pc[r] += 1
                progress = True
            elif ev is not None and ev.kind == "recv":
                queue = in_flight.get((ev.peer, r, ev.tag))
                if queue:
                    queue.pop(0)
                    pc[r] += 1
                    progress = True
        now = [current(r) for r in range(world)]
        if now and all(ev is not None and ev.kind == "collective"
                       for ev in now):
            calls += 1
            for r in range(1, world):
                diags = collective_mismatch(slot(calls), 0, now[0], r,
                                            now[r], **extra)
                if diags:
                    return diags
            pc = [p + 1 for p in pc]
        elif not progress:
            return judge_stuck(now, in_flight, slot(calls + 1), **extra)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _entry_functions(project: Project) -> list[FunctionInfo]:
    """Comm-taking call-graph roots: the drivers.

    A helper that only ever runs inside a driver is analyzed *through*
    the driver's symbolic execution, where its sends and receives meet
    their real partners; analyzing it standalone would misread, say, a
    send-only shard-distribution helper as a message leak.  Functions
    nobody in the project calls (entry drivers, exported API) are the
    roots the matcher can judge as whole programs.
    """
    called = {e.callee for e in project.edges if e.caller != e.callee}
    entries = [f for f in project.functions.values()
               if f.takes_comm() and f.qualname not in called]
    entries.sort(key=lambda f: (f.file, f.line))
    return entries


def verify_project(project: Project,
                   world_size: int = DEFAULT_WORLD_SIZE,
                   entries: Sequence[str] | None = None) -> VerifyResult:
    """Symbolically execute and cross-check every entry function."""
    if entries is not None:
        wanted = set(entries)
        selected = sorted(
            (f for f in project.functions.values()
             if f.takes_comm()
             and (f.qualname in wanted or f.name in wanted)),
            key=lambda f: (f.file, f.line))
    else:
        selected = _entry_functions(project)
    reports: list[EntryReport] = []
    all_findings: list[Diagnostic] = []
    seen: set[tuple] = set()

    def add(diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            key = (d.kind, d.file, d.line)
            if key not in seen:
                seen.add(key)
                all_findings.append(d)

    for info in selected:
        traces: list[Trace] = []
        local: list[Diagnostic] = []
        for rank in range(world_size):
            trace, findings = run_rank(project, info, rank, world_size)
            traces.append(trace)
            local.extend(findings)
        report = EntryReport(entry=info, traces=traces)
        report.findings.extend(local)
        if report.complete:
            report.findings.extend(match_traces(traces, info))
        reports.append(report)
        add(report.findings)

    add(Diagnostic(kind="syntax-error", message=message, file=path,
                   line=line) for path, line, message in project.parse_errors)
    reach = set().union(*(project.reachable_from(f.qualname)
                          for f in selected))
    for qual in sorted(reach):
        info = project.functions.get(qual)
        if info is not None and info.takes_comm():
            add(_literal_tags(info))

    all_findings = _apply_pragmas(all_findings)
    all_findings.sort(key=lambda d: (d.file or "", d.line or 0, d.kind))
    return VerifyResult(project=project, reports=reports,
                        findings=all_findings)


def _apply_pragmas(findings: list[Diagnostic]) -> list[Diagnostic]:
    by_file: dict[str, Suppressions] = {}
    out = []
    for d in findings:
        if d.file and d.file not in by_file:
            try:
                with open(d.file, encoding="utf-8") as f:
                    by_file[d.file] = Suppressions(f.read())
            except OSError:
                by_file[d.file] = Suppressions("")
        sup = by_file.get(d.file)
        if sup is not None and d.line and sup.suppressed(d.kind, d.line):
            continue
        out.append(d)
    return out


def default_verify_roots(cwd: str | None = None) -> list[str]:
    """The repro package, plus ``examples/`` under ``cwd`` (default: the
    working directory) when it exists."""
    roots = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    examples = os.path.join(cwd or os.getcwd(), "examples")
    if os.path.isdir(examples):
        roots.append(examples)
    return roots


def verify_paths(paths: Iterable[str] | None = None,
                 world_size: int = DEFAULT_WORLD_SIZE,
                 entries: Sequence[str] | None = None) -> VerifyResult:
    """Load, link, and verify files and directory trees."""
    if paths is None:
        paths = default_verify_roots()
    project = load_project(paths)
    return verify_project(project, world_size=world_size, entries=entries)


def _literal_tags(info: FunctionInfo) -> list[Diagnostic]:
    """``tag-mismatch`` within one function, from its literal tags."""
    ops = [o for o in _comm_ops_of(info) if "tag" in o]
    tags = {side: {o["tag"] for o in ops if o["op"] in ops_of}
            for side, ops_of in (("send", _SENDERS), ("recv", _RECEIVERS))}
    if not tags["send"] or not tags["recv"]:
        return []
    findings = []
    for o in ops:
        for side, other, ops_of in (("send", "recv", _SENDERS),
                                    ("recv", "send", _RECEIVERS)):
            if o["op"] in ops_of and o["tag"] not in tags[other]:
                ev = CommEvent(kind=side, op=o["op"], tag=o["tag"],
                               site=CallSite(info.file, o["line"], info.name))
                findings.append(literal_tag_mismatch(ev, tags[other]))
    return findings


# ----------------------------------------------------------------------
# Comm-graph artifact
# ----------------------------------------------------------------------
def _root_name(node: ast.expr) -> str | None:
    """Leftmost identifier of a Name/Attribute chain (``np.linalg`` -> np)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_collective_call(call: ast.Call) -> str | None:
    """The collective's name when ``call`` is a communicator collective."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _COLLECTIVES:
        return None
    if _root_name(func.value) in _NON_COMM_ROOTS:
        return None
    if func.attr == "split":
        # ``.split`` is overwhelmingly str.split; require communicator
        # evidence: a color/key keyword or a comm-ish receiver name.
        receiver = func.value
        name = (receiver.attr if isinstance(receiver, ast.Attribute) else
                receiver.id if isinstance(receiver, ast.Name) else "")
        if not ({"color", "key"} & {k.arg for k in call.keywords}
                or "comm" in name.lower()):
            return None
    return func.attr


def _comm_ops_of(info: FunctionInfo) -> list[dict]:
    """Syntactic communication operations of one function body."""
    ops = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        coll = _is_collective_call(node)
        if coll is not None:
            ops.append({"op": coll, "kind": "collective",
                        "line": node.lineno})
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _TAG_POSITIONS:
            entry = {"op": func.attr, "kind": "p2p", "line": node.lineno}
            pos = _TAG_POSITIONS[func.attr]
            tag = ([kw.value for kw in node.keywords if kw.arg == "tag"]
                   or node.args[pos:pos + 1])
            if (tag and isinstance(tag[0], ast.Constant)
                    and isinstance(tag[0].value, int)):
                entry["tag"] = tag[0].value
            ops.append(entry)
    return ops


def comm_graph_json(project: Project, entry: FunctionInfo,
                    world_size: int = DEFAULT_WORLD_SIZE,
                    report: EntryReport | None = None) -> dict:
    """The comm-graph artifact for one driver, as JSON-ready data."""
    reach = project.reachable_from(entry.qualname)
    nodes = []
    for qual in sorted(reach):
        info = project.functions.get(qual)
        if info is None:
            continue
        nodes.append({
            "qualname": qual,
            "file": info.file,
            "line": info.line,
            "takes_comm": info.takes_comm(),
            "rank_sensitive": info.rank_sensitive,
            "comm_ops": _comm_ops_of(info),
        })
    edges = sorted(
        {(e.caller, e.callee, e.line) for e in project.edges
         if e.caller in reach and e.callee in reach})
    data = {
        "entry": entry.qualname,
        "world_size": world_size,
        "nodes": nodes,
        "edges": [{"caller": c, "callee": t, "line": ln}
                  for c, t, ln in edges],
    }
    if report is not None:
        data["traces"] = {
            str(t.rank): {
                "complete": t.complete,
                "notes": t.notes,
                "events": [
                    {"kind": ev.kind, "op": ev.op, "root": ev.root,
                     "peer": ev.peer, "tag": ev.tag, "moved": ev.moved,
                     "site": str(ev.site)}
                    for ev in t.events
                ],
            }
            for t in report.traces
        }
    return data


def comm_graph_dot(project: Project, entry: FunctionInfo) -> str:
    """The reachable call graph as Graphviz DOT, comm ops annotated."""
    reach = project.reachable_from(entry.qualname)
    lines = [
        f'digraph "{entry.qualname}" {{',
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for qual in sorted(reach):
        info = project.functions.get(qual)
        if info is None:
            continue
        ops = sorted({o["op"] for o in _comm_ops_of(info)})
        label = qual
        if ops:
            label += "\\n" + ", ".join(ops)
        attrs = [f'label="{label}"']
        if qual == entry.qualname:
            attrs.append("style=bold")
        if info.rank_sensitive:
            attrs.append('color="firebrick"')
        lines.append(f'  "{qual}" [{", ".join(attrs)}];')
    for caller, callee in sorted(
            {(e.caller, e.callee) for e in project.edges
             if e.caller in reach and e.callee in reach}):
        lines.append(f'  "{caller}" -> "{callee}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_comm_graph(project: Project, entry: FunctionInfo, out_dir: str,
                     world_size: int = DEFAULT_WORLD_SIZE,
                     report: EntryReport | None = None) -> tuple[str, str]:
    """Write ``<entry>.dot`` and ``<entry>.json``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = entry.qualname.replace("/", "_")
    dot_path = os.path.join(out_dir, f"{base}.dot")
    json_path = os.path.join(out_dir, f"{base}.json")
    with open(dot_path, "w", encoding="utf-8") as f:
        f.write(comm_graph_dot(project, entry))
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(comm_graph_json(project, entry, world_size, report), f,
                  indent=2, sort_keys=True)
        f.write("\n")
    return dot_path, json_path
