"""Deterministic fault injector driving a :class:`FaultPlan`.

One :class:`FaultInjector` serves a whole SPMD world.  Each rank owns a
private slice of its state — an operation counter, per-kernel call
counters, and a ``numpy`` generator stream seeded ``(plan.seed, rank)``
— touched only from that rank's thread, so injection decisions need no
locking on the hot path (the shared event trace takes a lock, but only
when a fault actually fires).

Determinism contract: the runtime's per-rank message schedule is a pure
function of the program, so the sequence of injection queries a rank
makes — and therefore the sequence of variates it draws — is identical
on every replay with the same plan.  ``trace`` records every fired
fault; comparing traces across replays is the replay test.

Kernel hooks use the same thread-local activation pattern as
:mod:`repro.obs.tracer`: the launcher binds the injector to each rank
thread, ``current_injector()`` reads one thread-local attribute, and
the linalg kernels call it only to discover "no injector" at the cost
of a single attribute read.  The binding lives in
:mod:`repro.faults._hook`, which imports nothing: polling it does not
load this module or the plan.
"""

from __future__ import annotations

import json
import threading
from typing import Any

import numpy as np

from ..errors import ConfigurationError, RankKilledError
from ..obs.recorder import record_event as _recorder_event
from ._hook import activate, current_fault_rank, current_injector, deactivate
from .plan import (
    DEFAULT_TRACE_LIMIT,
    FaultEvent,
    FaultPlan,
    MessageFaultRule,
)

__all__ = [
    "FaultInjector",
    "activate",
    "deactivate",
    "current_injector",
    "current_fault_rank",
]

class _RankState:
    """Per-rank mutable injection state (single-thread access)."""

    __slots__ = ("rng", "ops", "kernel_calls", "crashed", "incarnation",
                 "crash_fires")

    def __init__(self, seed: int, rank: int) -> None:
        self.rng = np.random.default_rng((seed, rank))
        self.ops = 0
        self.kernel_calls: dict[str, int] = {}
        self.crashed = False
        self.incarnation = 0
        self.crash_fires = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically, rank by rank."""

    def __init__(self, plan: FaultPlan, *, trace_limit: int = DEFAULT_TRACE_LIMIT) -> None:
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"faults= expects a FaultPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        self._crash_by_rank = {c.rank: c for c in plan.crashes}
        self._states: dict[int, _RankState] = {}
        self._states_lock = threading.Lock()
        self._trace: list[FaultEvent] = []
        self._trace_lock = threading.Lock()
        self._trace_limit = trace_limit

    # -- per-rank state -------------------------------------------------
    def _state(self, rank: int) -> _RankState:
        st = self._states.get(rank)
        if st is None:
            # Lazily created once per rank; the lock only guards the
            # dict mutation, never the per-rank state it returns.
            with self._states_lock:
                st = self._states.setdefault(rank, _RankState(self.plan.seed, rank))
        return st

    def _record(self, event: FaultEvent) -> None:
        with self._trace_lock:
            if len(self._trace) < self._trace_limit:
                self._trace.append(event)
        # Mirror the fired fault into the flight recorder (if one is
        # active on this rank thread) so postmortems interleave faults
        # with the surrounding comm/kernel events.
        _recorder_event(
            "fault", event.kind, op_index=event.op_index,
            detail=list(event.detail),
        )

    # -- hooks ----------------------------------------------------------
    def on_op(self, rank: int) -> None:
        """Count one communicator operation; crash the rank when due."""
        st = self._state(rank)
        st.ops += 1
        crash = self._crash_by_rank.get(rank)
        if (
            crash is not None
            and not st.crashed
            and st.crash_fires < crash.repeat
            and st.ops >= crash.at_op
        ):
            st.crashed = True
            st.crash_fires += 1
            detail = (st.incarnation,) if st.incarnation else ()
            self._record(FaultEvent(rank, st.ops, "crash", detail))
            raise RankKilledError(
                f"rank {rank} (incarnation {st.incarnation}) killed by "
                f"injected fault at operation {st.ops}"
            )

    def note_respawn(
        self, rank: int, *, incarnation: int, fired: int | None = None
    ) -> None:
        """Reset ``rank``'s counters for a fresh incarnation.

        Elastic recovery respawns a replacement that replays the rank
        program from operation zero, so its crash calibration must
        count from zero too — otherwise ``at_op`` would mean something
        different for every incarnation and replays would diverge.
        ``fired`` pins the rule's total fire count (needed when the
        replacement runs in a fresh process whose forked/spawned
        injector copy never saw the original crash); ``None`` keeps the
        local count, which is correct for the shared-injector threads
        backend.
        """
        st = self._state(rank)
        st.ops = 0
        st.kernel_calls = {}
        st.crashed = False
        st.incarnation = incarnation
        if fired is not None:
            st.crash_fires = fired
        # A fresh generator stream keyed by incarnation keeps the
        # replacement's probabilistic draws deterministic regardless of
        # how many variates the dead incarnation consumed.
        st.rng = np.random.default_rng((self.plan.seed, rank, incarnation))

    def message_outcome(
        self, rank: int, dest: int, tag: int, nbytes: int
    ) -> MessageFaultRule | None:
        """The first message rule firing for this send, or None (clean).

        Every *matching* rule consumes exactly one variate whether it
        fires or not, so adding tolerance machinery (which never draws)
        cannot shift the fault schedule.
        """
        for rule in self.plan.messages:
            if not rule.matches(rank, tag, nbytes):
                continue
            st = self._state(rank)
            if st.rng.random() < rule.prob:
                self._record(
                    FaultEvent(rank, st.ops, rule.kind, (dest, tag, nbytes))
                )
                return rule
        return None

    def corrupted_copy(self, rank: int, payload: Any) -> Any | None:
        """A deep copy of ``payload`` with one ndarray byte bit-flipped.

        Returns None when the payload carries no ndarray to corrupt (the
        fault then degrades to a clean delivery).  Never touches the
        original payload — it may be a zero-copy *moved* buffer frozen
        read-only, and the sender's data must stay intact.
        """
        arrays: list[np.ndarray] = []

        def collect(obj: Any) -> Any:
            if isinstance(obj, np.ndarray):
                c = obj.copy()
                arrays.append(c)
                return c
            if isinstance(obj, list):
                return [collect(x) for x in obj]
            if isinstance(obj, tuple):
                return tuple(collect(x) for x in obj)
            return obj

        copied = collect(payload)
        targets = [a for a in arrays if a.nbytes > 0]
        if not targets:
            return None
        rng = self._state(rank).rng
        victim = targets[int(rng.integers(len(targets)))]
        flat = victim.reshape(-1).view(np.uint8)
        pos = int(rng.integers(flat.size))
        flat[pos] ^= np.uint8(1 << int(rng.integers(8)))
        return copied

    def kernel_fault(
        self, name: str, U: np.ndarray, sigma: np.ndarray | None = None, *,
        rank: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Apply any due kernel fault to ``(U, sigma)``; counts the call.

        Called by the linalg kernels through :func:`current_injector`.
        ``rank`` defaults to the thread-local rank bound at activation.
        """
        if rank is None:
            rank = current_fault_rank()
            if rank is None:
                return U, sigma
        st = self._state(rank)
        index = st.kernel_calls.get(name, 0)
        st.kernel_calls[name] = index + 1
        for rule in self.plan.kernels:
            if rule.kernel != name or rule.call_index != index:
                continue
            if rule.ranks is not None and rank not in rule.ranks:
                continue
            bad = np.array(U, copy=True)
            value = np.nan if rule.kind == "nan" else np.inf
            bad.flat[0] = value
            self._record(
                FaultEvent(rank, st.ops, f"kernel:{name}", (index, rule.kind))
            )
            return bad, sigma
        return U, sigma

    # -- introspection / replay ----------------------------------------
    @property
    def trace(self) -> list[FaultEvent]:
        """Snapshot of fired fault events (stable order per rank)."""
        with self._trace_lock:
            return list(self._trace)

    def trace_key(self) -> tuple:
        """Canonical, order-independent digest of the trace.

        Events from different rank threads interleave
        nondeterministically in wall time, so replay comparison sorts
        them; each rank's own subsequence is already deterministic.
        """
        return tuple(sorted(e.as_tuple() for e in self.trace))

    def trace_json(self) -> str:
        """The trace as JSON (one object per event), for replay files."""
        return json.dumps(
            [
                {
                    "rank": e.rank,
                    "op_index": e.op_index,
                    "kind": e.kind,
                    "detail": list(e.detail),
                }
                for e in self.trace
            ],
            indent=2,
        )

    def crash_fires(self, rank: int) -> int:
        """Times ``rank``'s crash rule has fired, across incarnations.

        Computed from the trace rather than per-rank state so it is
        correct on the master side of the process/socket transports,
        where the worker's counters live in another process but its
        fired events were absorbed with the rank's lifecycle message.
        """
        with self._trace_lock:
            return sum(
                1 for e in self._trace if e.rank == rank and e.kind == "crash"
            )

    def ops_per_rank(self) -> dict[int, int]:
        """Operation counts per rank (calibrates crash points)."""
        with self._states_lock:
            return {r: st.ops for r, st in sorted(self._states.items())}

    def absorb(self, events, ops_per_rank) -> None:
        """Merge a worker shard: fired events plus per-rank op counts.

        The process transport forks this injector into each worker; the
        worker ships back only post-fork events (as :meth:`FaultEvent.
        as_tuple` tuples) and its op counts, which merge here with
        ``max`` — a rank's counter only ever advances in its own
        process, so the largest value is the true one.
        """
        with self._trace_lock:
            for t in events:
                if len(self._trace) >= self._trace_limit:
                    break
                self._trace.append(FaultEvent(t[0], t[1], t[2], tuple(t[3])))
        with self._states_lock:
            for rank, ops in ops_per_rank.items():
                st = self._states.setdefault(
                    rank, _RankState(self.plan.seed, rank)
                )
                st.ops = max(st.ops, ops)
