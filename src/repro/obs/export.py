"""Exporters for recorded traces: Chrome trace JSON, tables, imbalance.

Three views of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and Perfetto.  Every rank gets
  its own track (``tid``), every span becomes a complete (``"X"``)
  event, and metadata events name the tracks so a timeline of an SPMD
  run opens ready to read.
* :func:`phase_table` — per-rank × per-phase seconds, the measured
  counterpart of the paper's stacked-bar breakdowns, via
  :mod:`repro.util.tables`.
* :func:`imbalance_summary` / :func:`imbalance_table` — per-phase
  max/mean/min over ranks, the imbalance ratio, barrier wait time, and
  the critical path (busiest rank), the quantities load-balancing work
  optimises against.
"""

from __future__ import annotations

import json

from ..instrument import PHASE_COMM
from ..util.tables import format_table
from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "phase_table",
    "imbalance_summary",
    "imbalance_table",
]

# The subset of the Trace Event Format this exporter emits.
_PROCESS_NAME = "repro SPMD world"


def _span_event(span: Span) -> dict:
    args: dict = {}
    if span.mode is not None:
        args["mode"] = span.mode
    if span.phase is not None:
        args["phase"] = span.phase
    args.update(span.attrs)
    return {
        "name": span.name,
        "cat": span.phase or "span",
        "ph": "X",
        "ts": span.start * 1e6,  # microseconds, per the spec
        "dur": span.duration * 1e6,
        "pid": 0,
        "tid": span.rank,
        "args": args,
    }


def chrome_trace(tracer: Tracer, comm_trace=None, *, metadata=None) -> dict:
    """Trace Event Format document: one track per rank, 'X' span events.

    Load the serialized result in ``chrome://tracing`` or
    https://ui.perfetto.dev — ranks appear as named threads of one
    process, with nested spans stacked exactly as they executed.

    ``comm_trace`` (a :class:`~repro.mpi.tracing.CommTrace`) adds one
    ``comm.reliability`` counter sample per rank that recorded dropped/
    retried/corrupted traffic — fault-tolerance activity shows up next
    to the spans it perturbed.

    The exported document self-identifies via the Trace Event Format's
    ``otherData`` key: commit hash, generation time, host, and the
    resolved ``run_config`` of the world the tracer last observed,
    merged with any caller-supplied ``metadata`` dict (e.g. backend name
    and run start time) — so a trace file found on disk months later
    still says what produced it.
    """
    spans = tracer.spans
    ranks = sorted({s.rank for s in spans})
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": _PROCESS_NAME},
    }]
    for rank in ranks:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": rank,
            "args": {"name": f"rank {rank}"},
        })
        # Perfetto sorts tracks by this index; keep rank order.
        events.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 0,
            "tid": rank,
            "args": {"sort_index": rank},
        })
    events.extend(_span_event(s) for s in spans)
    if comm_trace is not None:
        for rank in sorted(set(ranks) | set(comm_trace.ranks())):
            counters = {
                "dropped": comm_trace.dropped_messages(rank),
                "retried": comm_trace.retried_messages(rank),
                "checksum_failures": comm_trace.checksum_failures(rank),
            }
            if any(counters.values()):
                events.append({
                    "name": "comm.reliability",
                    "ph": "C",
                    "ts": 0,
                    "pid": 0,
                    "tid": rank,
                    "args": counters,
                })
    from .postmortem import run_metadata

    other = run_metadata()
    if tracer.run_config is not None:
        other["run_config"] = tracer.run_config
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer, path: str, *, indent: int | None = None, comm_trace=None,
    metadata=None,
) -> None:
    """Serialize :func:`chrome_trace` to ``path`` as JSON."""
    with open(path, "w") as f:
        json.dump(
            chrome_trace(tracer, comm_trace=comm_trace, metadata=metadata),
            f, indent=indent,
        )


def _phases_in_order(tracer: Tracer) -> list[str]:
    """Phases present in the trace, canonical breakdown order first."""
    from ..instrument import PHASE_LQ, PHASE_GRAM, PHASE_SVD, PHASE_EVD, PHASE_TTM

    canonical = [PHASE_LQ, PHASE_GRAM, PHASE_SVD, PHASE_EVD, PHASE_TTM, PHASE_COMM]
    present = {phase for (_r, phase) in tracer.by_rank_phase()}
    out = [p for p in canonical if p in present]
    out.extend(sorted(present - set(canonical)))
    return out


def phase_table(tracer: Tracer, *, title: str | None = None) -> str:
    """Per-rank × per-phase seconds table (plus busy-time column).

    The Comm column is cross-cutting — communication spans run *inside*
    the kernel spans — so rows are not sums of their cells; ``busy`` is
    the rank's top-level span time.
    """
    phases = _phases_in_order(tracer)
    per = tracer.by_rank_phase()
    rows = []
    for rank in tracer.ranks():
        row: list = [rank]
        row.extend(per.get((rank, p), 0.0) for p in phases)
        row.append(tracer.total_seconds(rank))
        rows.append(row)
    return format_table(["rank"] + phases + ["busy"], rows, title=title)


def imbalance_summary(tracer: Tracer) -> dict:
    """Load-imbalance quantities computed from the recorded spans.

    Returns a dict with:

    * ``phases`` — per phase: max/mean/min seconds over ranks and the
      imbalance ratio ``max/mean`` (1.0 = perfectly balanced; the
      randomized-HOSVD follow-up work attacks exactly this number);
    * ``barrier_wait`` — per-rank seconds inside ``comm.barrier`` spans
      (waiting at explicit barriers), plus the max;
    * ``comm_wait`` — per-rank seconds inside all Comm-phase spans, an
      upper bound on time not spent computing;
    * ``critical_path_seconds`` — busy time of the busiest rank, the
      wall-clock floor for this schedule;
    * ``mean_busy_seconds`` — mean busy time over ranks.
    """
    ranks = tracer.ranks()
    nranks = max(len(ranks), 1)
    per = tracer.by_rank_phase()
    phases: dict[str, dict] = {}
    for phase in _phases_in_order(tracer):
        vals = [per.get((r, phase), 0.0) for r in ranks]
        mx, mn = max(vals, default=0.0), min(vals, default=0.0)
        mean = sum(vals) / nranks
        phases[phase] = {
            "max": mx,
            "mean": mean,
            "min": mn,
            "imbalance": (mx / mean) if mean > 0 else 1.0,
        }
    barrier = {r: 0.0 for r in ranks}
    comm_wait = {r: 0.0 for r in ranks}
    for s in tracer.spans:
        if s.name == "comm.barrier":
            barrier[s.rank] = barrier.get(s.rank, 0.0) + s.duration
        if s.phase == PHASE_COMM and not s.self_nested:
            comm_wait[s.rank] = comm_wait.get(s.rank, 0.0) + s.duration
    busy = {r: tracer.total_seconds(r) for r in ranks}
    return {
        "phases": phases,
        "barrier_wait": barrier,
        "max_barrier_wait": max(barrier.values(), default=0.0),
        "comm_wait": comm_wait,
        "critical_path_seconds": max(busy.values(), default=0.0),
        "mean_busy_seconds": sum(busy.values()) / nranks,
    }


def imbalance_table(tracer: Tracer, *, title: str | None = None) -> str:
    """Render :func:`imbalance_summary` as a report table."""
    summary = imbalance_summary(tracer)
    rows = []
    for phase, st in summary["phases"].items():
        rows.append([phase, st["max"], st["mean"], st["min"], st["imbalance"]])
    busy = summary["critical_path_seconds"]
    mean_busy = summary["mean_busy_seconds"]
    rows.append([
        "busy", busy, mean_busy, "",
        (busy / mean_busy) if mean_busy > 0 else 1.0,
    ])
    rows.append(["barrier wait", summary["max_barrier_wait"],
                 "", "", ""])
    return format_table(
        ["phase", "max [s]", "mean [s]", "min [s]", "max/mean"],
        rows, title=title,
    )
