"""Per-rank span tracing for the SPMD runtime.

A :class:`Tracer` records *spans* — named, nestable intervals of
wall-clock time tagged with the rank that executed them, an optional
phase (the breakdown categories of :mod:`repro.instrument`), an optional
tensor mode, and free-form attributes.  One tracer serves a whole SPMD
world: :func:`repro.mpi.run_spmd` binds it to every rank thread (the
rank scope of :mod:`repro.obs._hook`, shared with the other
observers), and the instrumentation hooks threaded through the
communicator, the distributed kernels, and the drivers all find it
there without any signature plumbing.  The hook, :func:`trace_span`,
lives in :mod:`repro.obs._hook` (and is importable from here): a kernel
that polls it does not load this module.

Design constraints, in order:

1. **~zero overhead when off.**  Every hook goes through
   :func:`trace_span`, which is a single thread-local read plus the
   return of one shared null context manager when nothing that serves
   spans is bound.  No allocation, no lock, no timestamps.
2. **No cross-rank contention when on.**  Each rank thread appends
   finished spans to its own buffer; the tracer-wide lock is taken only
   when a buffer is registered (once per rank) and when spans are read
   back.
3. **Honest nesting.**  Spans track their depth and whether an enclosing
   span already carries the same phase (``self_nested``), so aggregate
   phase totals never double-count — e.g. the ``comm.bcast`` inside a
   ``tree``-algorithm ``comm.allreduce`` is excluded from the Comm
   total, exactly like the inner call of a recursive profiler.

Usage::

    tracer = Tracer()
    res = run_spmd(program, P, tracer=tracer)     # spans from all ranks
    tracer.by_phase(rank=0)                       # {"lq": 0.01, ...}

    with tracer.span("ttm", phase=PHASE_TTM, mode=1):   # explicit
        ...

    with trace_span("custom"):                    # via the active tracer
        ...
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ._hook import (  # noqa: F401 - re-exported; the hooks live there
    _SCOPE, KIND_SPAN_CLOSE, KIND_SPAN_OPEN, NULL_SPAN, current_tracer, rebind,
    trace_span)

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "deactivate",
    "current_tracer",
    "trace_span",
]


@dataclass(frozen=True)
class Span:
    """One finished span: a named wall-clock interval on one rank.

    ``start`` is seconds since the tracer's epoch (its construction
    time), ``duration`` in seconds.  ``phase`` uses the
    :mod:`repro.instrument` vocabulary (``lq``/``gram``/``svd``/``evd``/
    ``ttm``/``comm``) or ``None`` for uncategorised spans.  ``mode`` is
    the tensor mode, inherited from the enclosing span when not given.
    ``self_nested`` marks spans whose phase already appears on an
    enclosing span (skip them when totalling per-phase time).
    ``enclosing_phase`` is the innermost ancestor's phase, recording
    which breakdown category contains this span.
    """

    name: str
    rank: int
    start: float
    duration: float
    phase: str | None = None
    mode: int | None = None
    depth: int = 0
    self_nested: bool = False
    enclosing_phase: str | None = None
    attrs: dict = field(default_factory=dict)


class _OpenSpan:
    """A span being recorded (what ``trace_span``/``Tracer.span`` yield).

    The one span class: it records into ``tracer`` (nesting, the
    finished :class:`Span`) when there is one, and into the flight
    recorder bound to the calling thread (``span.open``/``span.close``
    events) when there is one — either alone or both.

    Mutable on purpose: instrumentation deeper in the call stack may
    attach attributes (``set``) or accumulate message-byte tallies
    (``add_bytes``) before the span closes.
    """

    __slots__ = (
        "_tracer", "name", "phase", "mode", "attrs", "depth",
        "self_nested", "enclosing_phase", "_start",
        "messages", "bytes_sent", "bytes_copied",
    )

    def __init__(self, tracer: "Tracer | None", name: str, phase: str | None,
                 mode: int | None, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.phase = phase
        self.mode = mode
        self.attrs = attrs
        self.depth = 0
        self.self_nested = False
        self.enclosing_phase: str | None = None
        self._start = 0.0
        self.messages = 0
        self.bytes_sent = 0
        self.bytes_copied = 0

    # -- enrichment hooks (called by instrumentation mid-span) ----------
    def set(self, **attrs) -> "_OpenSpan":
        """Attach attributes (e.g. the dispatched collective algorithm)."""
        self.attrs.update(attrs)
        return self

    def add_bytes(self, nbytes: int, copied: int) -> None:
        """Tally one sent message against this span."""
        self.messages += 1
        self.bytes_sent += nbytes
        self.bytes_copied += copied

    # -- context manager protocol ---------------------------------------
    def __enter__(self) -> "_OpenSpan":
        if self._tracer is not None:
            stack = self._tracer._state().stack
            self.depth = len(stack)
            if stack:
                parent = stack[-1]
                if self.mode is None:
                    self.mode = parent.mode if parent.mode is not None else (
                        parent.attrs.get("mode"))
                for anc in reversed(stack):
                    if anc.phase is not None:
                        self.enclosing_phase = anc.phase
                        break
                if self.phase is not None:
                    self.self_nested = any(
                        a.phase == self.phase for a in stack)
            stack.append(self)
        recorder = _SCOPE.observers.get("recorder")
        if recorder is not None:
            recorder.on_event(_SCOPE.rank, KIND_SPAN_OPEN, self.name, {})
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        attrs = self.attrs
        if self.messages:
            attrs.setdefault("messages", self.messages)
            attrs.setdefault("bytes_sent", self.bytes_sent)
            attrs.setdefault("bytes_copied", self.bytes_copied)
            attrs.setdefault(
                "bytes_moved", self.bytes_sent - self.bytes_copied)
        recorder = _SCOPE.observers.get("recorder")
        if recorder is not None:
            detail = dict(attrs, duration_s=round(end - self._start, 6))
            if self.mode is not None:
                detail["mode"] = self.mode
            if exc[0] is not None:
                detail["error"] = getattr(exc[0], "__name__", str(exc[0]))
            recorder.on_event(_SCOPE.rank, KIND_SPAN_CLOSE, self.name, detail)
        tracer = self._tracer
        if tracer is not None:
            state = tracer._state()
            state.stack.pop()
            state.buffer.append(Span(
                name=self.name,
                rank=state.rank,
                start=self._start - tracer._epoch,
                duration=end - self._start,
                phase=self.phase,
                mode=self.mode,
                depth=self.depth,
                self_nested=self.self_nested,
                enclosing_phase=self.enclosing_phase,
                attrs=attrs,
            ))
        return False


class _ThreadState:
    """Per-thread recording state: rank, span stack, finished-span buffer."""

    __slots__ = ("rank", "stack", "buffer")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.stack: list[_OpenSpan] = []
        self.buffer: list[Span] = []


class Tracer:
    """Thread-safe per-rank span recorder.

    One instance is shared by every rank of an SPMD world.  Rank threads
    are bound with :meth:`bind` (done by ``run_spmd``); unbound threads
    record as rank 0, which is what sequential drivers want.
    """

    def __init__(self) -> None:
        # The resolved configuration of the last run_spmd this tracer
        # observed (exported as chrome_trace's otherData["run_config"]).
        self.run_config: dict | None = None
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # Thread binding
    # ------------------------------------------------------------------
    def bind(self, rank: int) -> None:
        """Bind the calling thread to ``rank`` with a fresh span buffer."""
        state = _ThreadState(int(rank))
        self._tls.state = state
        with self._lock:
            self._states.append(state)

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(0)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, *, phase: str | None = None,
             mode: int | None = None, **attrs):
        """Context manager recording one span."""
        return _OpenSpan(self, name, phase, mode, attrs)

    def current_span(self) -> _OpenSpan | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._state().stack
        return stack[-1] if stack else None

    def add_bytes(self, nbytes: int, copied: int) -> None:
        """Tally one sent message against the innermost open span."""
        sp = self.current_span()
        if sp is not None:
            sp.add_bytes(nbytes, copied)

    def on_event(self, rank: int, kind: str, name, detail: dict) -> None:
        """Observer protocol: a ``send`` is tallied against the innermost
        open span."""
        if kind == "send":
            nbytes = detail["nbytes"]
            self.add_bytes(nbytes, 0 if detail["moved"] else nbytes)

    # ------------------------------------------------------------------
    # Cross-process shards (observer protocol)
    # ------------------------------------------------------------------
    def shard(self, rank: int, since: int | None):
        """The calling thread's spans finished since the mark ``since``.

        Spans live in the recording thread's buffer, so a shard cut
        elsewhere (a worker's heartbeat thread), or the priming cut
        (``since=None``), carries none: the spans ride home with the
        rank's closing report.  Returns ``(spans or None, mark)``.
        """
        mark = since or 0
        state = getattr(self._tls, "state", None)
        spans = (state.buffer[mark:]
                 if since is not None and state is not None else [])
        return spans or None, mark + len(spans)

    def absorb(self, rank: int, delta: list) -> None:
        """Fold spans cut in another process into this tracer.

        Each span carries its own rank, so the spans land in an
        anonymous buffer; all global queries see them exactly as if
        they had been recorded locally.
        """
        state = _ThreadState(-1)
        state.buffer = list(delta)
        with self._lock:
            self._states.append(state)

    # ------------------------------------------------------------------
    # Global queries
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """All finished spans, ordered by (rank, start)."""
        with self._lock:
            states = list(self._states)
        out: list[Span] = []
        for state in states:
            out.extend(state.buffer)
        out.sort(key=lambda s: (s.rank, s.start))
        return out

    def ranks(self) -> list[int]:
        """Ranks that recorded at least one span, ascending."""
        return sorted({s.rank for s in self.spans})

    def by_phase(self, rank: int | None = None) -> dict[str, float]:
        """Seconds per phase (self-nested spans excluded), optionally
        restricted to one rank.  Note the Comm phase is cross-cutting:
        communication happens *inside* the LQ/Gram/SVD/TTM spans, so
        phase rows are not disjoint and do not sum to wall time."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.phase is None or s.self_nested:
                continue
            if rank is not None and s.rank != rank:
                continue
            out[s.phase] = out.get(s.phase, 0.0) + s.duration
        return out

    def by_rank_phase(self) -> dict[tuple[int, str], float]:
        """Seconds per (rank, phase), self-nested spans excluded."""
        out: dict[tuple[int, str], float] = {}
        for s in self.spans:
            if s.phase is None or s.self_nested:
                continue
            key = (s.rank, s.phase)
            out[key] = out.get(key, 0.0) + s.duration
        return out

    def total_seconds(self, rank: int) -> float:
        """Top-level (depth-0) span seconds on one rank — busy time."""
        return sum(s.duration for s in self.spans
                   if s.rank == rank and s.depth == 0)

    def span_names(self) -> set[str]:
        """Distinct span names recorded so far."""
        return {s.name for s in self.spans}

    def open_spans(self) -> dict[int, list[str]]:
        """Each rank's currently-open span names, outermost first.

        A diagnostic snapshot for the sanitizer's deadlock watchdog:
        when the world stalls, this is "where every rank is right now".
        Reading other threads' stacks is inherently racy, which is fine
        for a crash report — the stalled ranks are blocked and not
        mutating theirs.
        """
        with self._lock:
            states = list(self._states)
        out: dict[int, list[str]] = {}
        for state in states:
            if state.stack:
                out[state.rank] = [sp.name for sp in state.stack]
        return out


# ----------------------------------------------------------------------
# Active-tracer plumbing (the rank scope of repro.obs._hook)
# ----------------------------------------------------------------------
def activate(tracer: Tracer, rank: int = 0) -> None:
    """Make ``tracer`` the calling thread's active tracer, bound to ``rank``.

    :func:`repro.mpi.run_spmd` binds every rank thread itself; call
    this to trace sequential code paths.
    """
    rebind("tracer", tracer, rank)


def deactivate() -> None:
    """Clear the calling thread's active tracer."""
    rebind("tracer")
