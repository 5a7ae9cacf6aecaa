"""Crash postmortems: bundle assembly, persistence, and rendering.

When a run launched with ``run_spmd(..., recorder=FlightRecorder(...))``
dies — :class:`~repro.errors.DeadlockError`,
:class:`~repro.errors.RankFailedError`,
:class:`~repro.errors.WorldAbortedError`, a hard worker death
(pipe-EOF), or any other rank exception — the launcher assembles a
single JSON **postmortem bundle** just before re-raising the root
cause:

* the last-N flight-recorder events of every rank,
* each rank's span stack at death (open spans, or the exception-unwind
  stack when the spans were closed by the propagating error),
* in-flight messages still queued in mailboxes, with sender origins
  when the sanitizer recorded them,
* per-rank heartbeat ages and lifecycle status,
* the sanitizer's deadlock report (wait-for-graph edges) when its
  watchdog fired,
* the fired-fault trace, and host/commit metadata.

The bundle is stashed on ``recorder.last_postmortem`` and, when
``FlightRecorder(postmortem_dir=...)`` is set, written to disk
(``recorder.last_postmortem_path``).  ``repro postmortem BUNDLE.json``
renders it for humans.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "POSTMORTEM_SCHEMA",
    "build_postmortem",
    "load_postmortem",
    "render_postmortem",
    "repo_commit",
    "host_metadata",
    "run_metadata",
    "write_postmortem",
]

POSTMORTEM_SCHEMA = "repro-postmortem/1"

# Default number of trailing recorder events included per rank.
DEFAULT_LAST_N = 50


def repo_commit() -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def host_metadata() -> Dict[str, Any]:
    """Host identification embedded in bundles and benchmark snapshots."""
    return {
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def run_metadata(
    backend: Optional[str] = None, start_unix: Optional[float] = None
) -> Dict[str, Any]:
    """Self-identifying metadata for exported artifacts (traces, bundles)."""
    meta: Dict[str, Any] = {
        "commit": repo_commit(),
        "generated_unix": time.time(),
        "host": host_metadata(),
    }
    if backend is not None:
        meta["backend"] = backend
    if start_unix is not None:
        meta["start_unix"] = start_unix
    return meta


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _in_flight_messages(context) -> List[Dict[str, Any]]:
    """Snapshot of every queued envelope, with sender origins when known."""
    out: List[Dict[str, Any]] = []
    try:
        pending = context.pending_messages()
    except Exception:
        return out
    for message in pending:
        entry: Dict[str, Any] = {
            "comm_id": message["comm_id"],
            "dest_world_rank": message["dest"],
            "source_rank": message["source"],
            "tag": message["tag"],
            "nbytes": message["nbytes"],
            "moved": bool(message["moved"]),
        }
        if message["origin"] is not None:
            entry["origin"] = str(message["origin"])
        out.append(entry)
    return out


def build_postmortem(
    context,
    error: Optional[BaseException] = None,
    errors: Optional[List[Optional[BaseException]]] = None,
    recorder=None,
    last_n: int = DEFAULT_LAST_N,
) -> Dict[str, Any]:
    """Assemble the postmortem bundle dict for an aborted world."""
    from .recorder import event_dict

    recorder = recorder if recorder is not None else getattr(context, "recorder", None)
    bundle: Dict[str, Any] = {
        "schema": POSTMORTEM_SCHEMA,
        "generated_unix": time.time(),
        "commit": repo_commit(),
        "host": host_metadata(),
        "backend": getattr(getattr(context, "transport", None), "name", None),
        "world_size": context.world_size,
        "aborted": context.abort_event.is_set(),
        "abort_reason": context.abort_reason,
        "failed_ranks": context.failed_ranks(),
    }
    if error is not None:
        err_entry: Dict[str, Any] = {
            "type": type(error).__name__,
            "message": str(error),
        }
        if errors:
            for rank, e in enumerate(errors):
                if e is error:
                    err_entry["rank"] = rank
                    break
        bundle["error"] = err_entry
    if errors:
        bundle["rank_errors"] = {
            str(rank): {"type": type(e).__name__, "message": str(e)}
            for rank, e in enumerate(errors)
            if e is not None
        }
    # A rank's age is the time since its newest recorded event: on the
    # process backends the heartbeat streams the workers' events into
    # this recorder, so the same reading holds on every backend.
    now = time.time()
    ranks: Dict[str, Any] = {}
    for rank in range(context.world_size):
        last = recorder.last_event_ts(rank) if recorder is not None else 0.0
        entry: Dict[str, Any] = {
            "status": context.rank_status(rank),
            "heartbeat_age_s": max(0.0, now - last) if last else None,
        }
        if recorder is not None:
            entry["events_recorded"] = recorder.recorded(rank)
            entry["events_evicted"] = recorder.evicted(rank)
            entry["open_spans"] = recorder.open_spans(rank)
            entry["error_unwind"] = recorder.error_unwind(rank)
            entry["span_stack"] = recorder.span_stack(rank)
            entry["last_events"] = [
                event_dict(e) for e in recorder.last_events(rank, last_n)
            ]
        ranks[str(rank)] = entry
    bundle["ranks"] = ranks
    bundle["in_flight"] = _in_flight_messages(context)
    deadlock = getattr(context, "last_deadlock", None)
    bundle["deadlock"] = _jsonable(deadlock) if deadlock is not None else None
    injector = getattr(context, "faults", None)
    if injector is not None:
        try:
            bundle["fault_trace"] = [list(e.as_tuple()) for e in injector.trace]
        except Exception:
            bundle["fault_trace"] = []
    else:
        bundle["fault_trace"] = []
    # Socket transport: per-rank link health (connect attempts/retries,
    # reconnects, last-frame age, the disconnect that killed the link,
    # injected network faults observed on it, a worker process that had
    # to be reaped by force at world close).
    net_health = getattr(context, "net_health", None)
    bundle["network"] = _jsonable(net_health) if net_health else None
    # "With which configuration?": what run_spmd resolved for this world.
    bundle["run_config"] = getattr(context, "run_config", None)
    return _jsonable(bundle)


def write_postmortem(
    bundle: Dict[str, Any],
    directory: str,
    filename: Optional[str] = None,
) -> str:
    """Write ``bundle`` as JSON under ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    if filename is None:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        filename = f"postmortem-{stamp}-{os.getpid()}.json"
    path = os.path.join(directory, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2, default=str)
        fh.write("\n")
    return path


def load_postmortem(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    if bundle.get("schema") != POSTMORTEM_SCHEMA:
        raise ValueError(
            f"{path}: not a postmortem bundle "
            f"(schema={bundle.get('schema')!r}, expected {POSTMORTEM_SCHEMA!r})"
        )
    return bundle


def _fmt_age(age: Any) -> str:
    if age is None:
        return "-"
    return f"{float(age):.2f}s"


def render_postmortem(bundle: Dict[str, Any], events: int = 10) -> str:
    """Human-readable report of a postmortem bundle (``repro postmortem``)."""
    from ..util.tables import format_table

    lines: List[str] = []
    when = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(bundle.get("generated_unix", 0))
    )
    lines.append(f"postmortem bundle ({bundle.get('schema')})")
    lines.append(
        f"  generated: {when}   commit: {str(bundle.get('commit'))[:12]}   "
        f"backend: {bundle.get('backend')}   world: {bundle.get('world_size')}"
    )
    host = bundle.get("host") or {}
    if host:
        lines.append(
            f"  host: {host.get('hostname')} ({host.get('platform')}, "
            f"python {host.get('python')}, {host.get('cpu_count')} cpus)"
        )
    error = bundle.get("error")
    if error:
        where = f" on rank {error['rank']}" if "rank" in error else ""
        lines.append(f"\nROOT CAUSE{where}: {error.get('type')}: {error.get('message')}")
    if bundle.get("abort_reason"):
        lines.append(f"abort reason: {bundle['abort_reason']}")
    if bundle.get("failed_ranks"):
        lines.append(f"failed ranks: {bundle['failed_ranks']}")

    rank_rows = []
    for rank_key in sorted(bundle.get("ranks", {}), key=int):
        entry = bundle["ranks"][rank_key]
        stack = entry.get("span_stack") or []
        rank_rows.append(
            [
                rank_key,
                entry.get("status", "?"),
                _fmt_age(entry.get("heartbeat_age_s")),
                str(entry.get("events_recorded", "-")),
                " < ".join(reversed(stack)) if stack else "-",
            ]
        )
    if rank_rows:
        lines.append("")
        lines.append(
            format_table(
                ["rank", "status", "hb age", "events", "span stack (innermost first)"],
                rank_rows,
                align_right=False,
            )
        )

    in_flight = bundle.get("in_flight") or []
    lines.append(f"\nin-flight messages: {len(in_flight)}")
    for msg in in_flight[:20]:
        origin = f"  origin: {msg['origin']}" if msg.get("origin") else ""
        lines.append(
            f"  comm {msg.get('comm_id')}: rank {msg.get('source_rank')} -> "
            f"world rank {msg.get('dest_world_rank')} tag={msg.get('tag')} "
            f"({msg.get('nbytes')} B{', moved' if msg.get('moved') else ''})"
            f"{origin}"
        )
    if len(in_flight) > 20:
        lines.append(f"  ... and {len(in_flight) - 20} more")

    deadlock = bundle.get("deadlock")
    if deadlock:
        lines.append(f"\ndeadlock: {deadlock.get('reason', '?')}")
        for wait in deadlock.get("waits", []):
            if isinstance(wait, dict):
                site = f" at {wait['site']}" if wait.get("site") else ""
                lines.append(
                    f"  rank {wait.get('rank')} blocked in "
                    f"recv(source={wait.get('source_comm_rank')}, "
                    f"tag={wait.get('tag')}) on comm {wait.get('comm_id')} "
                    f"awaiting rank {wait.get('awaiting_rank')}{site}"
                )
            else:
                lines.append(f"  {wait}")
        for rank, names in sorted(
            (deadlock.get("open_spans") or {}).items(), key=lambda kv: kv[0]
        ):
            lines.append(f"  rank {rank} open spans: {' > '.join(names)}")

    network = bundle.get("network") or {}
    if network:
        lines.append("\nnetwork links:")
        net_rows = []
        for rank_key in sorted(network, key=int):
            h = network[rank_key]
            faults = ",".join(h.get("faults") or []) or "-"
            net_rows.append(
                [
                    rank_key,
                    str(h.get("connect_attempts", "-")),
                    str(h.get("retries", "-")),
                    str(h.get("reconnects", "-")),
                    _fmt_age(h.get("heartbeat_age")),
                    faults,
                    "; ".join(filter(None, (h.get("disconnect"),
                                            h.get("reaped")))) or "-",
                ]
            )
        lines.append(
            format_table(
                ["rank", "connects", "retries", "reconns", "last rx",
                 "net faults", "disconnect"],
                net_rows,
                align_right=False,
            )
        )

    fault_trace = bundle.get("fault_trace") or []
    if fault_trace:
        lines.append(f"\nfault trace ({len(fault_trace)} fired):")
        for ev in fault_trace[:20]:
            lines.append(f"  {ev}")

    if events > 0:
        for rank_key in sorted(bundle.get("ranks", {}), key=int):
            entry = bundle["ranks"][rank_key]
            tail = (entry.get("last_events") or [])[-events:]
            if not tail:
                continue
            lines.append(f"\nrank {rank_key} — last {len(tail)} events:")
            for ev in tail:
                detail = ev.get("detail") or {}
                detail_str = " ".join(f"{k}={v}" for k, v in detail.items())
                name = ev.get("name") or ""
                lines.append(
                    f"  [{ev.get('seq'):>5}] {ev.get('kind'):<11} {name:<28} {detail_str}".rstrip()
                )
    return "\n".join(lines)
