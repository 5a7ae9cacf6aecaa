"""Per-rank bounded ring-buffer flight recorder.

The flight recorder is the always-on, ~constant-overhead event log that
survives a dying world: every rank appends small structured events
(p2p sends/recvs, collective span open/close with the chosen algorithm,
linalg kernel entry/exit, fault injections, checkpoint saves) into a
bounded ``collections.deque`` ring keyed by rank.  When a run aborts the
launcher snapshots the rings into a postmortem bundle
(:mod:`repro.obs.postmortem`); while a run is alive the rings back the
mid-run telemetry snapshots (:mod:`repro.obs.telemetry`) and the
ProcessTransport heartbeat deltas.

Enable by passing ``run_spmd(..., recorder=FlightRecorder())``.  The
recorder is one *observer* of the per-rank event stream (see "the rank
scope and the event spine" at the bottom of this module, which also
holds the scope every rank thread is bound to and :func:`emit`, the one
door events come through); it keeps every event it is handed.

Design notes
------------
* Events are plain tuples ``(seq, ts, kind, name, detail)`` where
  ``seq`` is a per-rank monotone counter, ``ts`` is wall-clock
  ``time.time()``, ``kind`` is one of the ``KIND_*`` constants, ``name``
  is a short label (span name, fault kind, checkpoint name) and
  ``detail`` is a small JSON-friendly dict.
* Each rank appends only to its own ring from its own thread, so the
  hot path needs no lock (CPython list/deque ops are atomic); a small
  lock guards only ring creation and cross-rank absorption bookkeeping.
* The recorder tracks two stacks per rank: the *open* span stack
  (pushed/popped by span events) and the *error-unwind* stack (span
  names closed by exception propagation, innermost first).  A rank that
  died mid-span leaves a non-empty open stack; a rank whose spans were
  unwound by the failing exception leaves the unwind stack — the
  postmortem uses whichever is non-empty.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FlightRecorder",
    "activate",
    "bind",
    "current_recorder",
    "current_recorder_rank",
    "deactivate",
    "emit",
    "record_event",
    "unbind",
]

# The two kinds the recorder interprets (its span stacks).  The rest of
# the stream it only keeps: the communicator emits ``send``, ``recv``,
# ``drop``, ``retry``, ``checksum`` and ``dispatch`` (one per message
# sent, received, lost to an injected drop, retransmitted, discarded
# for a bad checksum; one per collective algorithm choice), the fault
# injector ``fault``, the checkpoint layer ``checkpoint``, the context
# ``recovery``.
KIND_SPAN_OPEN = "span.open"
KIND_SPAN_CLOSE = "span.close"

Event = Tuple[int, float, str, Optional[str], Dict[str, Any]]


class _RankLog:
    """Mutable per-rank recorder state (ring + span bookkeeping)."""

    __slots__ = ("ring", "next_seq", "open_stack", "unwound", "last_ts")

    def __init__(self, capacity: int) -> None:
        self.ring: deque = deque(maxlen=capacity)
        self.next_seq = 0
        self.open_stack: List[str] = []
        self.unwound: List[str] = []
        self.last_ts = 0.0


class FlightRecorder:
    """Bounded per-rank event rings with span-stack reconstruction.

    Parameters
    ----------
    capacity:
        Maximum events retained per rank; older events are evicted.
    heartbeat_interval:
        Period (seconds) at which ProcessTransport workers ship deltas
        to the master; also the suggested sampling period for
        ``repro top``.
    postmortem_dir:
        When set, the launcher writes the postmortem bundle JSON into
        this directory on an aborted run (the in-memory bundle is
        always stashed on :attr:`last_postmortem`).
    """

    def __init__(
        self,
        *,
        capacity: int = 512,
        heartbeat_interval: float = 0.5,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.capacity = int(capacity)
        self.heartbeat_interval = float(heartbeat_interval)
        self.postmortem_dir = postmortem_dir
        self.last_postmortem: Optional[Dict[str, Any]] = None
        self.last_postmortem_path: Optional[str] = None
        self._lock = threading.Lock()
        self._logs: Dict[int, _RankLog] = {}

    # -- recording (rank-local hot path) --------------------------------

    def _log(self, rank: int) -> _RankLog:
        log = self._logs.get(rank)
        if log is None:
            with self._lock:
                log = self._logs.get(rank)
                if log is None:
                    log = _RankLog(self.capacity)
                    self._logs[rank] = log
        return log

    def bind(self, rank: int) -> None:
        """Observer protocol: nothing is per-thread, rings are per rank."""

    def record(
        self,
        rank: int,
        kind: str,
        name: Optional[str] = None,
        **detail: Any,
    ) -> None:
        """Append one event to ``rank``'s ring."""
        self.on_event(rank, kind, name, detail)

    def on_event(
        self, rank: int, kind: str, name: Optional[str], detail: Dict[str, Any]
    ) -> None:
        """Observer protocol: keep the event (no lock on the hot path)."""
        log = self._log(rank)
        seq = log.next_seq
        log.next_seq = seq + 1
        ts = time.time()
        log.last_ts = ts
        log.ring.append((seq, ts, kind, name, detail))
        if kind == KIND_SPAN_OPEN:
            log.open_stack.append(name or "")
        elif kind == KIND_SPAN_CLOSE:
            self._note_close(log, name or "", detail.get("error"))

    @staticmethod
    def _note_close(log: _RankLog, name: str, error: Optional[str]) -> None:
        if log.open_stack and log.open_stack[-1] == name:
            log.open_stack.pop()
        if error is not None:
            # Exception unwind: remember the stack innermost-first.
            log.unwound.append(name)
        elif log.unwound:
            # A clean close after an unwind means the rank recovered.
            log.unwound.clear()

    # -- queries --------------------------------------------------------

    def ranks(self) -> List[int]:
        """Sorted list of ranks that have recorded at least one event."""
        return sorted(self._logs)

    def events(self, rank: Optional[int] = None) -> List[Event]:
        """All retained events for one rank (or all ranks, seq-interleaved)."""
        if rank is not None:
            log = self._logs.get(rank)
            return list(log.ring) if log is not None else []
        out: List[Event] = []
        for r in self.ranks():
            out.extend(self._logs[r].ring)
        return out

    def last_events(self, rank: int, n: int) -> List[Event]:
        """The newest ``n`` retained events for ``rank``, oldest first."""
        log = self._logs.get(rank)
        if log is None:
            return []
        ring = list(log.ring)
        return ring[-n:] if n < len(ring) else ring

    def events_since(self, rank: int, seq: int) -> List[Event]:
        """Events with ``seq`` at or after the given cursor (delta shipping)."""
        log = self._logs.get(rank)
        if log is None:
            return []
        return [e for e in list(log.ring) if e[0] >= seq]

    def cursor(self, rank: int) -> int:
        """Next unassigned sequence number for ``rank``."""
        log = self._logs.get(rank)
        return log.next_seq if log is not None else 0

    def recorded(self, rank: int) -> int:
        """Total events ever recorded for ``rank`` (including evicted)."""
        return self.cursor(rank)

    def evicted(self, rank: int) -> int:
        """How many old events the ring has dropped for ``rank``."""
        log = self._logs.get(rank)
        if log is None or not log.ring:
            return 0
        return log.ring[0][0]

    def last_event_ts(self, rank: int) -> float:
        """Wall-clock time of ``rank``'s newest event (0.0 if none)."""
        log = self._logs.get(rank)
        return log.last_ts if log is not None else 0.0

    def open_spans(self, rank: Optional[int] = None):
        """Open span stack for one rank, or ``{rank: stack}`` for all."""
        if rank is not None:
            log = self._logs.get(rank)
            return list(log.open_stack) if log is not None else []
        return {r: list(self._logs[r].open_stack) for r in self.ranks()}

    def error_unwind(self, rank: int) -> List[str]:
        """Span names closed by exception unwind, innermost first."""
        log = self._logs.get(rank)
        return list(log.unwound) if log is not None else []

    def span_stack(self, rank: int) -> List[str]:
        """Best-effort span stack at death: open spans, else the unwind."""
        open_stack = self.open_spans(rank)
        if open_stack:
            return open_stack
        return list(reversed(self.error_unwind(rank)))

    # -- cross-process merge --------------------------------------------

    def shard(self, rank: int, since: Optional[int]):
        """Observer protocol: ``rank``'s events from cursor ``since`` on."""
        if since is None:
            return [], self.cursor(rank)
        events = self.events_since(rank, since)
        return events, (events[-1][0] + 1 if events else since)

    def absorb_events(self, rank: int, events: Iterable[Sequence[Any]]) -> None:
        """Merge a shipped event delta for ``rank`` (master side, procs).

        Replays span open/close bookkeeping so ``open_spans`` and
        ``error_unwind`` stay consistent with the worker's view.
        """
        log = self._log(rank)
        with self._lock:
            for ev in events:
                seq, ts, kind, name, detail = ev
                if log.ring and seq <= log.ring[-1][0]:
                    continue  # duplicate delivery (heartbeat vs finalize)
                log.ring.append((seq, ts, kind, name, dict(detail)))
                log.next_seq = max(log.next_seq, seq + 1)
                log.last_ts = max(log.last_ts, ts)
                if kind == KIND_SPAN_OPEN:
                    log.open_stack.append(name or "")
                elif kind == KIND_SPAN_CLOSE:
                    self._note_close(log, name or "", detail.get("error"))

    absorb = absorb_events  # observer protocol

    def clear(self) -> None:
        """Drop every rank's log, resetting the recorder for reuse."""
        with self._lock:
            self._logs.clear()

    # -- export ---------------------------------------------------------

    def to_dict(self, last_n: Optional[int] = None) -> Dict[str, Any]:
        """JSON-friendly dump: per-rank events + span stacks + counters."""
        ranks: Dict[str, Any] = {}
        for r in self.ranks():
            events = self.events(r)
            if last_n is not None:
                events = events[-last_n:]
            ranks[str(r)] = {
                "recorded": self.recorded(r),
                "evicted": self.evicted(r),
                "open_spans": self.open_spans(r),
                "error_unwind": self.error_unwind(r),
                "events": [event_dict(e) for e in events],
            }
        return {"capacity": self.capacity, "ranks": ranks}


def event_dict(event: Sequence[Any]) -> Dict[str, Any]:
    """Convert an event tuple into a JSON-friendly dict."""
    seq, ts, kind, name, detail = event
    out: Dict[str, Any] = {"seq": seq, "ts": ts, "kind": kind}
    if name is not None:
        out["name"] = name
    if detail:
        out["detail"] = {k: _jsonable(v) for k, v in detail.items()}
    return out


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


# -- the rank scope and the event spine ---------------------------------
#
# An *observer* is anything that only reads the message path: it is
# handed every event of the ranks it is bound to and never changes what
# happens to a message.  Four methods make one (CommTrace, Tracer and
# FlightRecorder are the three this library ships):
#
#   bind(rank)                          per-thread setup, on the rank's thread
#   on_event(rank, kind, name, detail)  one event of the stream
#   shard(rank, since) -> (delta, cursor)   what happened since ``cursor``
#   absorb(rank, delta)                 fold another process's shard in
#
# ``shard`` is how a worker process ships its share home: ``since`` is
# the cursor the previous call returned (``None`` primes it — a forked
# worker inherits the caller's tallies and ships only what it adds), a
# falsy ``delta`` means nothing to ship, and a part that only the
# recording thread can cut (spans) simply stays out of a shard cut by
# another thread.


class _RankScope(threading.local):
    """The calling thread's rank and the observers bound to it."""

    rank = None
    observers: Dict[str, Any] = {}  # name -> observer; empty = unobserved


_SCOPE = _RankScope()


def bind(rank: int, observers: Dict[str, Any]) -> None:
    """Bind the calling thread to ``rank`` and its ``{name: observer}``.

    Done once per rank thread by the launcher; :func:`activate` (here
    and in :mod:`repro.obs.tracer`) binds one observer to a sequential
    thread on the same scope.
    """
    for observer in observers.values():
        observer.bind(rank)
    _SCOPE.rank = rank
    _SCOPE.observers = observers


def unbind() -> None:
    """Leave the calling thread unobserved again."""
    _SCOPE.rank = None
    _SCOPE.observers = {}


def rebind(name: str, observer=None, rank: Optional[int] = None) -> None:
    """Bind (or with ``None`` drop) one observer, keeping the others."""
    observers = {k: v for k, v in _SCOPE.observers.items() if k != name}
    if rank is None:
        rank = _SCOPE.rank
    if observer is not None:
        observer.bind(rank)
        observers[name] = observer
    _SCOPE.rank = rank
    _SCOPE.observers = observers


def emit(kind: str, name: Optional[str] = None, **detail: Any) -> None:
    """Hand one event of the calling rank to every observer bound to it."""
    scope = _SCOPE
    for observer in scope.observers.values():
        observer.on_event(scope.rank, kind, name, detail)


#: The public name of :func:`emit` for code outside the message path
#: (fault injection, checkpoint saves).
record_event = emit


def activate(recorder: FlightRecorder, rank: int) -> None:
    """Bind ``recorder`` to the calling thread as ``rank``."""
    rebind("recorder", recorder, rank)


def deactivate() -> None:
    rebind("recorder")


def current_recorder() -> Optional[FlightRecorder]:
    return _SCOPE.observers.get("recorder")


def current_recorder_rank() -> Optional[int]:
    return _SCOPE.rank if "recorder" in _SCOPE.observers else None
