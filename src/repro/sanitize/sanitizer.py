"""Runtime correctness sanitizer for the simulated SPMD world.

Activated with ``run_spmd(program, P, sanitize=True)``, this is the
MUST/TSan-style prong of :mod:`repro.sanitize`: it watches every
communicator operation of a live run and turns the classic silent SPMD
failure modes into deterministic, rank-attributed exceptions.  What
each finding means and says is decided by the rule book
:mod:`repro.sanitize.match`; this module keeps what needs a live rank:

* **The collective ledger** — per ``(communicator, call #)`` slot, the
  first arrival's :class:`~repro.sanitize.match.CommEvent` and the
  ranks that arrived.  A later arrival that disagrees raises
  :class:`~repro.errors.CollectiveMismatchError` naming both call sites
  instead of hanging in a half-entered collective; a slot still open
  when the world ended names the ranks that returned without reaching
  it (:meth:`Sanitizer.close_collectives`).
* **The wait-for graph and stall watchdog** — blocking receives
  register edges; a cycle of blocked ranks whose awaited messages are
  not in flight, or every live rank blocked with no progress, raises
  :class:`~repro.errors.DeadlockError` with each rank's open span stack
  from the active :class:`repro.obs.Tracer`.
* **Move registration** — every ndarray relinquished by a zero-copy
  ``send(copy=False)`` (and every elided copy a receiver gets) is
  registered with its sending call site; a later mutation surfaces as
  :class:`~repro.errors.UseAfterMoveError` pointing at the move, not as
  a bare NumPy ``ValueError``.
* **The finalize report** — undrained mailbox entries become
  :class:`~repro.errors.MessageLeakError`.

Every check is reached through a single ``context.sanitizer is None``
test in the communicator hot paths, so a run without ``sanitize=`` pays
one attribute read per operation.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..errors import (
    CollectiveMismatchError,
    DeadlockError,
    MessageLeakError,
    UseAfterMoveError,
)
from ..util.arraycodec import map_arrays
from .diagnostics import (
    ERROR,
    CallSite,
    Diagnostic,
    capture_call_site,
    format_diagnostics,
)
from .match import (
    CommEvent,
    agree,
    collective_mismatch,
    deadlock,
    message_leak,
    never_reaches,
    partner_gone,
    slot,
)

__all__ = ["Sanitizer"]


@dataclass
class _WaitEdge:
    """One blocked receive: ``rank`` waits on ``target`` in ``event``."""

    rank: int              # waiting world rank
    target: int            # awaited world rank
    comm_id: int
    event: CommEvent       # peer = the awaited rank within the communicator
    mailbox: Any           # the waiter's mailbox (for in-flight checks)


@dataclass
class _MoveRecord:
    """Provenance of one frozen (moved) ndarray."""

    rank: int                      # rank that relinquished / received it
    site: CallSite | None          # the zero-copy send's call site
    op: str                        # "send", "alltoall", ...
    direction: str                 # "sent" | "received"
    ref: Any = None                # weakref to the array (guards id reuse)
    dest: int | None = None        # destination rank for sent buffers
    source: int | None = None      # origin rank for received buffers


@dataclass
class MoveOrigin:
    """Sender-side provenance carried in a moved message's envelope."""

    rank: int
    site: CallSite | None
    op: str = "send"


class Sanitizer:
    """Correctness monitor for one SPMD world (see module docstring)."""

    #: Seconds a blocked receive sleeps between progress checks; also the
    #: granularity of global-stall detection.
    watchdog_interval = 0.25

    def __init__(self) -> None:
        self.findings: list[Diagnostic] = []
        self._lock = threading.Lock()
        self._context = None  # set by attach()
        # (comm_id, seq) -> (first arrival's event, ranks arrived in order)
        self._slots: dict[tuple[int, int], tuple[CommEvent, list[int]]] = {}
        self._waits: dict[int, _WaitEdge] = {}
        self._moves: dict[int, _MoveRecord] = {}
        self._last_move: dict[int, _MoveRecord] = {}  # per-rank, fallback
        # Progress epoch for the global-stall watchdog: bumped by every
        # send and every completed wait.  A stall is declared only after
        # two observations, one watchdog interval apart, of the exact
        # same (blocked ranks, epoch) state — so a rank momentarily
        # between "message dequeued" and "wait unregistered" can never
        # trip a false positive.
        self._progress_seq = 0
        self._stall_obs: tuple | None = None

    # ------------------------------------------------------------------
    # World lifecycle
    # ------------------------------------------------------------------
    def attach(self, context) -> None:
        """Bind to the :class:`~repro.mpi.context.SpmdContext` of a run."""
        self._context = context

    def _record(self, diag: Diagnostic) -> None:
        with self._lock:
            self.findings.append(diag)

    def _raise(self, err, deadlock_state: dict | None = None) -> None:
        """Record ``err``'s findings, abort the world, raise it."""
        for d in err.diagnostics:
            self._record(d)
        if self._context is not None:
            if deadlock_state is not None:
                self._context.last_deadlock = deadlock_state
            self._context.abort(str(err))
        raise err

    def report(self) -> str:
        """All findings, one per line (empty string when clean)."""
        with self._lock:
            return format_diagnostics(list(self.findings))

    def absorb_findings(self, diagnostics) -> None:
        """Fold another ledger's findings in (process-backend shards)."""
        with self._lock:
            self.findings.extend(diagnostics)

    # ------------------------------------------------------------------
    # The collective ledger
    # ------------------------------------------------------------------
    def check_collective(
        self,
        comm_id: int,
        seq: int,
        world_rank: int,
        op: str,
        signature: tuple,
        comm_size: int,
        site: CallSite | None = None,
    ) -> None:
        """Arrive at collective slot ``(comm_id, seq)``.

        The first arrival's event is the slot's reference; every later
        arrival must agree with it.  A slot is purged once all
        ``comm_size`` ranks arrived, so the ledger stays bounded.
        ``site`` is the caller's call site when the call was made in
        another process (captured here otherwise).
        """
        key = (comm_id, seq)
        ev = CommEvent("collective", op, site, signature)
        with self._lock:
            entry = self._slots.get(key)
            # The common case for (P-1) of P arrivals needs no call-site
            # capture (no stack walk).
            if entry is not None and agree(entry[0], ev):
                self._arrive(key, entry[1], world_rank, comm_size)
                return
        if site is None:
            ev = CommEvent("collective", op, capture_call_site(), signature)
        with self._lock:
            first, arrived = self._slots.setdefault(key, (ev, []))
            if agree(first, ev):  # registrant, or raced with it
                self._arrive(key, arrived, world_rank, comm_size)
                return
        diags = collective_mismatch(slot(seq, comm_id), arrived[0], first,
                                    world_rank, ev, seq=seq)
        self._raise(CollectiveMismatchError(diags[0].message,
                                            diagnostics=diags))

    def _arrive(self, key, arrived: list, world_rank: int,
                comm_size: int) -> None:
        """Caller holds ``self._lock``."""
        arrived.append(world_rank)
        if len(arrived) >= comm_size:
            del self._slots[key]

    def close_collectives(self, context, returned, died):
        """Judge the slots still open once the world ended.

        A member that returned normally (``returned``) without arriving
        never reaches the collective; one that raised or died keeps its
        own error as the root cause.  With ranks ``died`` the finding is
        a warning, as leaks are.  Returns the error to raise, or None.
        """
        with self._lock:
            open_slots = sorted(self._slots.items())
        found = []
        for (comm_id, seq), (ev, arrived) in open_slots:
            absent = [r for r in context.comm_members[comm_id]
                      if r in returned and r not in arrived]
            if absent:
                found.append(never_reaches(slot(seq, comm_id), arrived, ev,
                                           absent, died, seq=seq))
        for d in found:
            self._record(d)
        errors = [d for d in found if d.severity == ERROR]
        if not errors:
            return None
        return CollectiveMismatchError(
            "\n".join(d.message for d in errors), diagnostics=errors)

    # ------------------------------------------------------------------
    # Wait-for graph + deadlock watchdog
    # ------------------------------------------------------------------
    def begin_wait(
        self,
        world_rank: int,
        target_world: int,
        source_comm_rank: int,
        tag: int,
        comm_id: int,
        mailbox,
        site: CallSite | None = None,
    ) -> None:
        """Register a blocked receive and check for a wait-for cycle.

        ``mailbox`` answers ``has(source, tag)``: whether the awaited
        message is already on its way.  ``site`` is the receive's call
        site when it blocks in another process (captured here
        otherwise).
        """
        edge = _WaitEdge(
            rank=world_rank, target=target_world, comm_id=comm_id,
            event=CommEvent(
                "recv", "recv",
                site if site is not None else capture_call_site(),
                peer=source_comm_rank, tag=tag),
            mailbox=mailbox,
        )
        with self._lock:
            self._waits[world_rank] = edge
            cycle = self._trace_cycle(world_rank)
        if cycle and not self._in_flight(cycle):
            self._raise_deadlock(cycle, reason="wait-for cycle")

    def end_wait(self, world_rank: int) -> None:
        """Unregister the rank's blocked receive (message arrived/raised)."""
        with self._lock:
            self._waits.pop(world_rank, None)
            self._progress_seq += 1

    def _trace_cycle(self, start: int) -> list[_WaitEdge] | None:
        """Follow wait edges from ``start``; the cycle through it, if any.

        Caller holds ``self._lock``.
        """
        chain: list[_WaitEdge] = []
        seen: set[int] = set()
        cur = start
        while cur in self._waits and cur not in seen:
            seen.add(cur)
            edge = self._waits[cur]
            chain.append(edge)
            cur = edge.target
        if cur == start and chain:
            return chain
        return None

    @staticmethod
    def _in_flight(edges: list[_WaitEdge]) -> bool:
        """Whether an awaited message of ``edges`` is already on its way.

        Every member is blocked (it registered a wait after its sends
        completed — sends are buffered and return immediately), so if
        none of the awaited (source, tag) queues holds a message, no
        member can ever be satisfied: a genuine deadlock.
        """
        return any(e.mailbox.has(e.event.peer, e.event.tag) for e in edges)

    def _raise_deadlock(self, edges: list[_WaitEdge], reason: str) -> None:
        message, diags = deadlock(reason, [
            (e.rank, e.event, e.comm_id, e.target) for e in edges])
        stacks = self._span_stacks()
        if stacks:
            message += "\n  open span stacks at detection:" + "".join(
                f"\n    rank {rank}: {' > '.join(names)}"
                for rank, names in sorted(stacks.items()))
        # The postmortem bundle gets the watchdog's findings before the
        # abort wipes the world: the wait-for edges, the awaited peers,
        # and the span stacks at detection time.
        self._raise(DeadlockError(message, diagnostics=diags), {
            "reason": reason,
            "detected_unix": time.time(),
            "waits": [
                {
                    "rank": e.rank,
                    "awaiting_rank": e.target,
                    "source_comm_rank": e.event.peer,
                    "tag": e.event.tag,
                    "comm_id": e.comm_id,
                    "site": str(e.event.site) if e.event.site else None,
                }
                for e in edges
            ],
            "open_spans": {
                str(r): list(names) for r, names in sorted(stacks.items())
            },
        })

    def _span_stacks(self) -> dict[int, list[str]]:
        """Each rank's open span names: active tracer, else flight recorder."""
        ctx = self._context
        tracer = getattr(ctx, "tracer", None) if ctx is not None else None
        if tracer is not None:
            try:
                return tracer.open_spans()
            except Exception:  # pragma: no cover - diagnostics must not raise
                return {}
        recorder = getattr(ctx, "recorder", None) if ctx is not None else None
        if recorder is not None:
            try:
                stacks = recorder.open_spans()
                return {r: names for r, names in stacks.items() if names}
            except Exception:  # pragma: no cover - diagnostics must not raise
                return {}
        return {}

    def on_stall(self, world_rank: int) -> None:
        """Watchdog tick from a blocked receive: detect a global stall.

        Called each time a blocked receive wakes without a match.  When
        every live (not finalized, not failed) rank has been registered
        as blocked, with no send and no completed wait, across two
        observations one :attr:`watchdog_interval` apart — and none of
        the awaited messages is in flight — the world can make no
        further progress: report the full wait-for state (plus the open
        span stacks from the active tracer) instead of waiting out the
        receive timeout.
        """
        ctx = self._context
        if ctx is None:
            return
        with self._lock:
            waiting = frozenset(self._waits)
            progress = self._progress_seq
        live = {
            r for r in range(ctx.world_size)
            if ctx.rank_status(r) == "running"
        }
        if not live or not live.issubset(waiting):
            with self._lock:
                self._stall_obs = None
            return
        snapshot = (waiting, progress)
        now = time.monotonic()
        with self._lock:
            obs = self._stall_obs
            if obs is None or obs[0] != snapshot:
                self._stall_obs = (snapshot, now)
                return
            if now - obs[1] < self.watchdog_interval:
                return
            blocked = [self._waits[r] for r in sorted(live)
                       if r in self._waits]
        if not self._in_flight(blocked):
            self._raise_deadlock(blocked, reason="global stall, no progress")

    def describe_failed_partner(
        self,
        world_rank: int,
        target_world: int,
        source_comm_rank: int,
        tag: int,
        status: str,
        mailbox,
        expected: bool = False,
    ) -> Diagnostic:
        """The finding for a receive whose partner finalized or died.

        ``expected`` marks deaths a :class:`~repro.faults.FaultPlan`
        injected on purpose.
        """
        pending = sorted(
            t for (s, t), n in mailbox.pending().items()
            if s == source_comm_rank and n > 0 and t != tag
        )
        recv = CommEvent("recv", "recv", capture_call_site(),
                         peer=source_comm_rank, tag=tag)
        diag = partner_gone(world_rank, recv, target_world, status, pending,
                            expected)
        self._record(diag)
        return diag

    # ------------------------------------------------------------------
    # Move registration and the read-only translation
    # ------------------------------------------------------------------
    def note_send(self, world_rank: int) -> MoveOrigin:
        """Record provenance of a copied send (for leak attribution)."""
        with self._lock:
            self._progress_seq += 1
        return MoveOrigin(rank=world_rank, site=capture_call_site())

    def note_move(self, payload: Any, world_rank: int, op: str,
                  dest: int | None = None) -> MoveOrigin:
        """Register every ndarray in a payload relinquished by a move."""
        site = capture_call_site()
        origin = MoveOrigin(rank=world_rank, site=site, op=op)
        self._register_arrays(payload, _MoveRecord(
            rank=world_rank, site=site, op=op, direction="sent", dest=dest,
        ))
        with self._lock:
            self._progress_seq += 1
        return origin

    def note_received_move(self, payload: Any, world_rank: int,
                           origin: MoveOrigin | None) -> None:
        """Register a receiver's read-only elided copy with its provenance."""
        site = origin.site if origin is not None else None
        src = origin.rank if origin is not None else None
        op = origin.op if origin is not None else "send"
        self._register_arrays(payload, _MoveRecord(
            rank=world_rank, site=site, op=op, direction="received",
            source=src,
        ))

    def _register_arrays(self, payload: Any, proto: _MoveRecord) -> None:
        def register(a: np.ndarray) -> np.ndarray:
            if not a.flags.writeable:
                rec = replace(proto, ref=weakref.ref(a))
                with self._lock:
                    self._moves[id(a)] = rec
                    self._last_move[proto.rank] = rec
            return a

        map_arrays(payload, register)

    def _lookup_move(self, arr: np.ndarray) -> _MoveRecord | None:
        """The move record for ``arr`` (or the base it is a view of)."""
        with self._lock:
            for candidate in (arr, arr.base):
                if candidate is None:
                    continue
                rec = self._moves.get(id(candidate))
                if rec is not None:
                    target = rec.ref()
                    if target is None or target is candidate:
                        return rec
        return None

    def explain_readonly_write(self, exc: BaseException,
                               world_rank: int) -> UseAfterMoveError | None:
        """Translate NumPy's read-only ``ValueError`` into a move violation.

        Called by the launcher when a rank dies with a ``ValueError``:
        if the message is NumPy's read-only complaint and the frame that
        raised holds a frozen array we registered, the result is a
        :class:`UseAfterMoveError` carrying the original *move* site —
        the place the buffer was relinquished, which is what the user
        must fix.  Returns ``None`` when the error is unrelated.
        """
        if not isinstance(exc, ValueError):
            return None
        text = str(exc)
        if "read-only" not in text and "WRITEABLE" not in text:
            return None
        record: _MoveRecord | None = None
        tb = exc.__traceback__
        frame = None
        while tb is not None:
            frame = tb.tb_frame
            tb = tb.tb_next
        if frame is not None:
            for value in list(frame.f_locals.values()):
                if isinstance(value, np.ndarray) and not value.flags.writeable:
                    record = self._lookup_move(value)
                    if record is not None:
                        break
        if record is None:
            with self._lock:
                record = self._last_move.get(world_rank)
        if record is None:
            return None
        if record.direction == "received":
            what = (
                f"rank {world_rank} wrote into a read-only zero-copy payload "
                f"received from rank {record.source} (moved by "
                f"{record.op}(copy=False) at {record.site}); copy it before "
                f"mutating, or send with copy=True"
            )
        else:
            what = (
                f"rank {world_rank} mutated a buffer after relinquishing it "
                f"via {record.op}(copy=False) at {record.site}"
                + (f" (moved to rank {record.dest})"
                   if record.dest is not None else "")
                + "; the receiver owns it now — reuse requires copy=True"
            )
        diag = Diagnostic(
            kind="use-after-move", message=what, severity=ERROR,
            file=record.site.file if record.site else None,
            line=record.site.line if record.site else None,
            rank=world_rank,
        )
        self._record(diag)
        return UseAfterMoveError(what, diagnostics=[diag])

    # ------------------------------------------------------------------
    # Finalize-time leak report
    # ------------------------------------------------------------------
    def finalize_world(self, context) -> list[Diagnostic]:
        """Report the messages left undelivered after all ranks returned.

        Each (destination, source, tag) with pending envelopes is one
        finding attributed to the sender (with the sending call site
        when the message was sent under sanitizing), raised as
        :class:`MessageLeakError` — unless a rank died during the run: a
        crashed rank legitimately strands in-flight messages, so leaks
        are then recorded as warnings.
        """
        died = context.failed_ranks()
        leaks: list[Diagnostic] = []
        channels = itertools.groupby(
            context.pending_messages(),
            key=lambda m: (m["comm_id"], m["dest"], m["source"], m["tag"]),
        )
        for (comm_id, dest_world, source, tag), rows in channels:
            rows = list(rows)
            origin = rows[0]["origin"]
            leaks.append(message_leak(
                origin.rank if origin is not None else None, dest_world,
                source, tag, len(rows),
                origin.site if origin is not None else None,
                nbytes=sum(m["nbytes"] for m in rows),
                comm_id=comm_id, died=died,
            ))
        for d in leaks:
            self._record(d)
        if leaks and not died:
            raise MessageLeakError(
                format_diagnostics(
                    leaks,
                    header=f"{len(leaks)} message leak(s) at finalize:",
                ),
                diagnostics=leaks,
            )
        return leaks
