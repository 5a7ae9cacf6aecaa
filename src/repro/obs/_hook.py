"""The rank scope every instrumented kernel polls, and nothing behind it.

The ``repro.linalg`` kernels, the drivers and the communicator ask on
every call whether anyone observes the calling thread, so the question
lives apart from what would answer it, as :mod:`repro.faults._hook` does
for the fault injector: this module imports nothing of the package, and
a thread with no observer bound pays one thread-local read in
:func:`trace_span` and :func:`emit` and never loads
:mod:`repro.obs.tracer` (``Tracer`` and the span it records) or
:mod:`repro.obs.recorder` (``FlightRecorder``).  The span class loads
with the first observer bound.

An *observer* is anything that only reads the message path: it is
handed every event of the ranks it is bound to and never changes what
happens to a message.  Four methods make one (CommTrace, Tracer and
FlightRecorder are the three this library ships):

  bind(rank)                          per-thread setup, on the rank's thread
  on_event(rank, kind, name, detail)  one event of the stream
  shard(rank, since) -> (delta, cursor)   what happened since ``cursor``
  absorb(rank, delta)                 fold another process's shard in

``shard`` is how a worker process ships its share home: ``since`` is
the cursor the previous call returned (``None`` primes it — a forked
worker inherits the caller's tallies and ships only what it adds), a
falsy ``delta`` means nothing to ship, and a part that only the
recording thread can cut (spans) simply stays out of a shard cut by
another thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from .tracer import Tracer

__all__ = [
    "KIND_SPAN_CLOSE",
    "KIND_SPAN_OPEN",
    "NULL_SPAN",
    "bind",
    "current_tracer",
    "emit",
    "rebind",
    "record_event",
    "trace_span",
    "unbind",
]

# The two kinds the flight recorder interprets (its span stacks).  The
# rest of the stream it only keeps: the communicator emits ``send``,
# ``recv``, ``drop``, ``retry``, ``checksum`` and ``dispatch`` (one per
# message sent, received, lost to an injected drop, retransmitted,
# discarded for a bad checksum; one per collective algorithm choice),
# the fault injector ``fault``, the checkpoint layer ``checkpoint``, the
# context ``recovery``.
KIND_SPAN_OPEN = "span.open"
KIND_SPAN_CLOSE = "span.close"


class _RankScope(threading.local):
    """The calling thread's rank and the observers bound to it."""

    rank = None
    observers: Dict[str, Any] = {}  # name -> observer; empty = unobserved


_SCOPE = _RankScope()

# ``repro.obs.tracer._OpenSpan``, set by the first bind of an observer.
_open_span = None


def _load_span() -> None:
    global _open_span
    if _open_span is None:
        from .tracer import _OpenSpan

        _open_span = _OpenSpan


def bind(rank: int, observers: Dict[str, Any]) -> None:
    """Bind the calling thread to ``rank`` and its ``{name: observer}``.

    Done once per rank thread by the launcher; ``activate`` (in
    :mod:`repro.obs.recorder` and :mod:`repro.obs.tracer`) binds one
    observer to a sequential thread on the same scope.
    """
    if observers:
        _load_span()
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
        _load_span()
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


def current_tracer() -> Tracer | None:
    """The calling thread's active tracer, or None when tracing is off."""
    return _SCOPE.observers.get("tracer")


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


def trace_span(name: str, *, phase: str | None = None,
               mode: int | None = None, **attrs):
    """Span context manager on whatever is bound; shared no-op otherwise.

    The unobserved path costs one thread-local read and returns the
    module-level :data:`NULL_SPAN` singleton — this is the hook all
    instrumented kernels use, so "tracing off" stays free.  The span
    serves the active tracer, the active flight recorder (kernel
    entry/exit and collective algorithm choices reach the rings with
    or without a tracer), or both.
    """
    observers = _SCOPE.observers
    if not observers:
        return NULL_SPAN
    tracer = observers.get("tracer")
    if tracer is None and "recorder" not in observers:
        return NULL_SPAN
    return _open_span(tracer, name, phase, mode, attrs)
