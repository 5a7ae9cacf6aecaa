"""Mid-run telemetry: live snapshots of a running SPMD world.

A :class:`TelemetryHub` is attached by the launcher when passed via
``run_spmd(..., telemetry=hub)``.  While the world runs, any thread may
call :meth:`TelemetryHub.snapshot` to get a JSON-friendly view of the
world — per-rank status, heartbeat age, flight-recorder activity, open
span stacks, and communication totals — or :meth:`TelemetryHub.render`
for the ``repro top`` text table.

Heartbeats: on the process backend each worker ships periodic deltas to
the master (see ``repro.mpi.transport.worldproxy``) and the master calls
:meth:`beat`; on the thread backend ranks share the master's address
space, so the last flight-recorder event timestamp doubles as the
heartbeat.  ``heartbeat_age_s`` is the freshest of the two signals.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

__all__ = ["TelemetryHub"]


class TelemetryHub:
    """Thread-safe mid-run snapshot API over a live SPMD world."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._context = None
        self._recorder = None
        self._backend: Optional[str] = None
        self._started: Optional[float] = None
        self._beats: Dict[int, float] = {}

    # -- wiring (called by the launcher / transports) -------------------

    def attach(self, context, recorder=None, backend: Optional[str] = None) -> None:
        """Bind this hub to a world about to execute."""
        with self._lock:
            self._context = context
            self._recorder = recorder
            self._backend = backend
            self._started = time.time()
            self._beats = {}

    def beat(self, rank: int, ts: Optional[float] = None) -> None:
        """Record a heartbeat from ``rank`` (procs master ingest path)."""
        with self._lock:
            self._beats[rank] = time.time() if ts is None else ts

    @property
    def attached(self) -> bool:
        return self._context is not None

    @property
    def backend(self) -> Optional[str]:
        return self._backend

    # -- queries --------------------------------------------------------

    def heartbeat_ages(self, now: Optional[float] = None) -> Dict[int, Optional[float]]:
        """Seconds since each rank was last heard from (None = never)."""
        with self._lock:
            context = self._context
            recorder = self._recorder
            beats = dict(self._beats)
        if context is None:
            return {}
        if now is None:
            now = time.time()
        ages: Dict[int, Optional[float]] = {}
        for rank in range(context.world_size):
            ts = beats.get(rank, 0.0)
            if recorder is not None:
                ts = max(ts, recorder.last_event_ts(rank))
            ages[rank] = max(0.0, now - ts) if ts else None
        return ages

    def snapshot(self) -> Dict[str, Any]:
        """One consistent-enough view of the world, safe to call mid-run."""
        with self._lock:
            context = self._context
            recorder = self._recorder
            backend = self._backend
            started = self._started
        if context is None:
            return {"attached": False}
        now = time.time()
        ages = self.heartbeat_ages(now)
        per_rank: Dict[str, Any] = {}
        comm_ranks: Dict[int, Dict[str, Any]] = {}
        comm_trace = getattr(context, "comm_trace", None)
        if comm_trace is not None:
            try:
                comm_ranks = {
                    int(r): dict(row)
                    for r, row in comm_trace.to_dict().get("ranks", {}).items()
                }
            except Exception:
                comm_ranks = {}
        incarnations = getattr(context, "rank_incarnations", None)
        for rank in range(context.world_size):
            entry: Dict[str, Any] = {
                "status": context.rank_status(rank),
                "heartbeat_age_s": ages.get(rank),
            }
            if incarnations is not None:
                entry["incarnation"] = int(incarnations[rank])
            if recorder is not None:
                entry["events_recorded"] = recorder.recorded(rank)
                entry["open_spans"] = recorder.open_spans(rank)
            if rank in comm_ranks:
                entry["comm"] = comm_ranks[rank]
            per_rank[str(rank)] = entry
        recovery_events = getattr(context, "recovery_events", None)
        try:
            recovery = recovery_events() if callable(recovery_events) else []
        except Exception:
            recovery = []
        snap: Dict[str, Any] = {
            "attached": True,
            "time_unix": now,
            "uptime_s": max(0.0, now - started) if started else 0.0,
            "backend": backend,
            "world_size": context.world_size,
            "aborted": context.abort_event.is_set(),
            "abort_reason": context.abort_reason,
            "failed_ranks": context.failed_ranks(),
            "recoveries": len(recovery),
            "ranks": per_rank,
            "run_config": getattr(context, "run_config", None),
        }
        if comm_trace is not None:
            try:
                snap["comm_totals"] = comm_trace.to_dict().get("totals", {})
            except Exception:
                pass
        return snap

    # -- rendering ------------------------------------------------------

    def render(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """Format a snapshot as the ``repro top`` text table."""
        snap = snapshot if snapshot is not None else self.snapshot()
        if not snap.get("attached"):
            return "repro top — no world attached"
        from ..util.tables import format_table

        header = (
            f"repro top — backend={snap.get('backend') or '?'}  "
            f"world={snap.get('world_size')}  "
            f"uptime={snap.get('uptime_s', 0.0):.1f}s"
        )
        if snap.get("recoveries"):
            header += f"  recoveries={snap['recoveries']}"
        if snap.get("aborted"):
            header += f"  ABORTED: {snap.get('abort_reason')}"
        rows = []
        for rank_key in sorted(snap.get("ranks", {}), key=int):
            entry = snap["ranks"][rank_key]
            age = entry.get("heartbeat_age_s")
            comm = entry.get("comm", {})
            spans = entry.get("open_spans") or []
            incarnation = entry.get("incarnation", 0)
            rows.append(
                [
                    rank_key,
                    entry.get("status", "?"),
                    str(incarnation + 1) if incarnation else "1",
                    "-" if age is None else f"{age:.2f}s",
                    str(entry.get("events_recorded", "-")),
                    str(comm.get("sent_messages", "-")),
                    str(comm.get("sent_bytes", "-")),
                    str(comm.get("recv_messages", "-")),
                    spans[-1] if spans else "-",
                ]
            )
        table = format_table(
            ["rank", "status", "inc", "hb age", "events", "sent", "sent B",
             "recvd", "where"],
            rows,
        )
        return header + "\n" + table
