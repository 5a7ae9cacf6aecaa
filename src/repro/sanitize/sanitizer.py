"""Runtime correctness sanitizer for the simulated SPMD world.

Activated with ``run_spmd(program, P, sanitize=True)`` (or an explicit
:class:`Sanitizer` instance for tuning), this is the MUST/TSan-style
prong of :mod:`repro.sanitize`: it watches every communicator operation
of a live run and turns the classic silent SPMD failure modes into
deterministic, rank-attributed exceptions:

* **Collective matching** — every rank of a communicator must enter the
  same collective, in the same per-communicator order, with a consistent
  signature (root, reduction op, payload dtype/shape where the operation
  requires symmetry).  A divergent rank raises
  :class:`~repro.errors.CollectiveMismatchError` naming both call sites
  instead of hanging in a half-entered collective.
* **Deadlock detection** — blocking receives register edges in a
  wait-for graph; a cycle of blocked ranks whose awaited messages are
  not in flight raises :class:`~repro.errors.DeadlockError` on the rank
  that closed the cycle.  A watchdog additionally detects global stalls
  (every live rank blocked, nothing in flight) and dumps each rank's
  open span stack from the active :class:`repro.obs.Tracer`.
* **Move-semantics enforcement** — every ndarray relinquished by a
  zero-copy ``send(copy=False)`` (and every elided copy a receiver gets)
  is registered with its sending call site; a later mutation surfaces as
  :class:`~repro.errors.UseAfterMoveError` pointing at the move, not as
  a bare NumPy ``ValueError``.
* **Message-leak reporting** — at finalize, undrained mailbox entries
  (sent but never received: orphaned messages, mismatched tags) become
  ``message-leak`` diagnostics, raised as
  :class:`~repro.errors.MessageLeakError` in strict mode.

Every check is reached through a single ``context.sanitizer is None``
test in the communicator hot paths, so a run without ``sanitize=`` pays
one attribute read per operation.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import (
    CollectiveMismatchError,
    DeadlockError,
    MessageLeakError,
    UseAfterMoveError,
)
from .diagnostics import (
    ERROR,
    WARNING,
    CallSite,
    Diagnostic,
    capture_call_site,
    format_diagnostics,
)

__all__ = ["Sanitizer"]


@dataclass
class _CollectiveEntry:
    """First-arriving rank's view of one collective slot (comm, seq)."""

    op: str
    signature: tuple
    rank: int
    site: CallSite | None
    arrivals: int = 1


@dataclass
class _WaitEdge:
    """One blocked receive: ``rank`` waits on ``target`` for (tag, comm)."""

    rank: int              # waiting world rank
    target: int            # awaited world rank
    source_comm_rank: int  # awaited rank within the communicator
    tag: int
    comm_id: int
    site: CallSite | None
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
    """Correctness monitor for one SPMD world (see module docstring).

    Parameters
    ----------
    strict:
        Raise :class:`~repro.errors.MessageLeakError` at finalize when
        mailboxes are undrained (default).  With ``strict=False`` leaks
        are only recorded in :attr:`findings`.
    watchdog_interval:
        Seconds a blocked receive sleeps between progress checks; also
        the granularity of global-stall detection.
    """

    def __init__(self, *, strict: bool = True,
                 watchdog_interval: float = 0.25) -> None:
        self.strict = strict
        self.watchdog_interval = float(watchdog_interval)
        self.findings: list[Diagnostic] = []
        self._lock = threading.Lock()
        self._context = None  # set by attach()
        self._collectives: dict[tuple[int, int], _CollectiveEntry] = {}
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

    def report(self) -> str:
        """All findings, one per line (empty string when clean)."""
        with self._lock:
            return format_diagnostics(list(self.findings))

    def absorb_findings(self, diagnostics) -> None:
        """Fold another ledger's findings in (process-backend shards)."""
        with self._lock:
            self.findings.extend(diagnostics)

    # ------------------------------------------------------------------
    # Prong 1a: collective matching
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
        """Verify this rank's collective call against the first arrival.

        The first rank to reach collective slot ``(comm_id, seq)``
        registers ``(op, signature)``; every later arrival must match
        both.  Entries are purged once all ``comm_size`` ranks arrived,
        so the ledger stays bounded.  ``site`` is the caller's call site
        when the call was made in another process (captured here
        otherwise).
        """
        key = (comm_id, seq)
        with self._lock:
            entry = self._collectives.get(key)
            if entry is not None and entry.op == op \
                    and entry.signature == signature:
                # Fast path — the common case for (P-1) of P arrivals —
                # needs no call-site capture (no stack walk).
                entry.arrivals += 1
                if entry.arrivals >= comm_size:
                    del self._collectives[key]
                return
        if site is None:
            site = capture_call_site()
        with self._lock:
            entry = self._collectives.get(key)
            if entry is None:
                self._collectives[key] = _CollectiveEntry(
                    op=op, signature=signature, rank=world_rank, site=site
                )
                return
            if entry.op == op and entry.signature == signature:
                # Raced with the registrant between the two lock takes.
                entry.arrivals += 1
                if entry.arrivals >= comm_size:
                    del self._collectives[key]
                return
            first = entry
        # Mismatch: build both-sided diagnostics outside the lock.
        if first.op != op:
            what = (
                f"collective order mismatch on communicator {comm_id} "
                f"(call #{seq}): rank {first.rank} called {first.op}() at "
                f"{first.site}, rank {world_rank} called {op}()"
            )
        else:
            what = (
                f"collective signature mismatch in {op}() on communicator "
                f"{comm_id} (call #{seq}): rank {first.rank} passed "
                f"{_sig_str(first.signature)} at {first.site}, rank "
                f"{world_rank} passed {_sig_str(signature)}"
            )
        diags = [
            Diagnostic(
                kind="collective-mismatch", message=what, severity=ERROR,
                file=first.site.file if first.site else None,
                line=first.site.line if first.site else None,
                rank=first.rank,
                extra={"op": first.op, "seq": seq},
            ),
            Diagnostic(
                kind="collective-mismatch", message=what, severity=ERROR,
                file=site.file if site else None,
                line=site.line if site else None,
                rank=world_rank,
                extra={"op": op, "seq": seq},
            ),
        ]
        for d in diags:
            self._record(d)
        if self._context is not None:
            self._context.abort(what)
        raise CollectiveMismatchError(what, diagnostics=diags)

    # ------------------------------------------------------------------
    # Prong 1b: wait-for graph + deadlock watchdog
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
            rank=world_rank, target=target_world,
            source_comm_rank=source_comm_rank, tag=tag, comm_id=comm_id,
            site=site if site is not None else capture_call_site(),
            mailbox=mailbox,
        )
        with self._lock:
            self._waits[world_rank] = edge
            cycle = self._trace_cycle(world_rank)
        if cycle and self._cycle_is_starved(cycle):
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
    def _cycle_is_starved(cycle: list[_WaitEdge]) -> bool:
        """True when no awaited message of the cycle is in flight.

        Every cycle member is blocked (it registered a wait after its
        sends completed — sends are buffered and return immediately), so
        if none of the awaited (source, tag) queues holds a message, no
        member can ever be satisfied: a genuine deadlock.
        """
        return all(
            not e.mailbox.has(e.source_comm_rank, e.tag) for e in cycle
        )

    def _raise_deadlock(self, edges: list[_WaitEdge], reason: str) -> None:
        lines = []
        diags = []
        for e in edges:
            desc = (
                f"rank {e.rank} blocked in recv(source={e.source_comm_rank}, "
                f"tag={e.tag}) on communicator {e.comm_id} awaiting rank "
                f"{e.target} at {e.site}"
            )
            lines.append("  " + desc)
            diags.append(Diagnostic(
                kind="deadlock", message=desc, severity=ERROR,
                file=e.site.file if e.site else None,
                line=e.site.line if e.site else None,
                rank=e.rank,
                extra={"awaiting": e.target, "tag": e.tag},
            ))
        stacks = self._span_stacks()
        if stacks:
            lines.append("  open span stacks at detection:")
            for rank, names in sorted(stacks.items()):
                lines.append(f"    rank {rank}: {' > '.join(names)}")
        msg = f"deadlock detected ({reason}):\n" + "\n".join(lines)
        for d in diags:
            self._record(d)
        if self._context is not None:
            # Feed the watchdog's findings to the postmortem bundle
            # before the abort wipes the world: the wait-for edges, the
            # awaited peers, and the span stacks at detection time.
            self._context.last_deadlock = {
                "reason": reason,
                "detected_unix": time.time(),
                "waits": [
                    {
                        "rank": e.rank,
                        "awaiting_rank": e.target,
                        "source_comm_rank": e.source_comm_rank,
                        "tag": e.tag,
                        "comm_id": e.comm_id,
                        "site": str(e.site) if e.site else None,
                    }
                    for e in edges
                ],
                "open_spans": {
                    str(r): list(names)
                    for r, names in sorted(stacks.items())
                },
            }
            self._context.abort(msg)
        raise DeadlockError(msg, diagnostics=diags)

    def _span_stacks(self) -> dict[int, list[str]]:
        """Each rank's open span names: active tracer, else flight recorder."""
        ctx = self._context
        tracer = getattr(ctx, "tracer", None) if ctx is not None else None
        if tracer is not None and getattr(tracer, "enabled", False):
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
        if any(e.mailbox.has(e.source_comm_rank, e.tag) for e in blocked):
            return
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
        """Diagnostic for a receive whose partner finalized or died.

        Inspects the waiter's mailbox for undelivered messages from the
        same source under *different* tags — the signature of a tag
        mismatch — and says so explicitly.  ``expected`` marks deaths a
        :class:`~repro.faults.FaultPlan` injected on purpose: the
        observation is still recorded (the recovery path should be
        visible in reports) but at WARNING, since surviving it is the
        point of the experiment.
        """
        site = capture_call_site()
        pending = [
            t for (s, t), n in mailbox.pending().items()
            if s == source_comm_rank and n > 0 and t != tag
        ]
        kind = "rank-failed"
        msg = (
            f"rank {world_rank} blocked in recv(source={source_comm_rank}, "
            f"tag={tag}) but rank {target_world} already {status}"
        )
        if pending:
            kind = "tag-mismatch"
            msg += (
                f"; undelivered message(s) from it with tag(s) "
                f"{sorted(pending)} are pending — mismatched send/recv tags?"
            )
        severity = ERROR
        if expected and kind == "rank-failed":
            severity = WARNING
            msg += " (injected fault — expected under the active FaultPlan)"
        diag = Diagnostic(
            kind=kind, message=msg, severity=severity,
            file=site.file if site else None,
            line=site.line if site else None,
            rank=world_rank,
            extra={"partner": target_world, "tag": tag,
                   "pending_tags": sorted(pending)},
        )
        self._record(diag)
        return diag

    # ------------------------------------------------------------------
    # Prong 1c: move-semantics enforcement
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
        if isinstance(payload, np.ndarray):
            if payload.flags.writeable:
                return
            rec = _MoveRecord(
                rank=proto.rank, site=proto.site, op=proto.op,
                direction=proto.direction, dest=proto.dest,
                source=proto.source,
            )
            try:
                rec.ref = weakref.ref(payload)
            except TypeError:  # plain ndarrays are weakref-able; views too
                rec.ref = None
            with self._lock:
                self._moves[id(payload)] = rec
                self._last_move[proto.rank] = rec
        elif isinstance(payload, (list, tuple)):
            for x in payload:
                self._register_arrays(x, proto)

    def _lookup_move(self, arr: np.ndarray) -> _MoveRecord | None:
        """The move record for ``arr`` (or the base it is a view of)."""
        with self._lock:
            for candidate in (arr, arr.base):
                if candidate is None:
                    continue
                rec = self._moves.get(id(candidate))
                if rec is not None:
                    target = rec.ref() if rec.ref is not None else None
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
    # Prong 1d: finalize-time leak report
    # ------------------------------------------------------------------
    def finalize_world(self, context) -> list[Diagnostic]:
        """Report the messages left undelivered after all ranks returned.

        Each (destination, source, tag) with pending envelopes yields one
        ``message-leak`` diagnostic attributed to the sender (with the
        sending call site when the message was sent under sanitizing).
        Raises :class:`MessageLeakError` in strict mode — unless any
        rank died during the run: a crashed rank legitimately strands
        in-flight messages (and survivors' recovery may leave exchanges
        with the dead rank half-done), so leaks are then reported as
        warnings instead of errors.
        """
        failed = context.failed_ranks() if hasattr(context, "failed_ranks") else []
        severity = WARNING if failed else ERROR
        leaks: list[Diagnostic] = []
        channels = itertools.groupby(
            context.pending_messages(),
            key=lambda m: (m["comm_id"], m["dest"], m["source"], m["tag"]),
        )
        for (comm_id, dest_world, source, tag), rows in channels:
            rows = list(rows)
            origin = rows[0]["origin"]
            site = origin.site if origin is not None else None
            sender = origin.rank if origin is not None else None
            nbytes = sum(m["nbytes"] for m in rows)
            msg = (
                f"{len(rows)} undelivered message(s) "
                f"(source comm-rank {source}, tag {tag}, {nbytes} bytes) "
                f"left in rank {dest_world}'s mailbox on communicator "
                f"{comm_id} at finalize"
            )
            if site is not None:
                msg += f"; first sent at {site}"
            if failed:
                msg += (
                    f" (rank(s) {failed} died — expected residue of "
                    f"a failed/recovered run)"
                )
            leaks.append(Diagnostic(
                kind="message-leak", message=msg, severity=severity,
                file=site.file if site else None,
                line=site.line if site else None,
                rank=sender,
                extra={"dest": dest_world, "tag": tag,
                       "count": len(rows), "nbytes": nbytes},
            ))
        for d in leaks:
            self._record(d)
        if leaks and self.strict and not failed:
            raise MessageLeakError(
                format_diagnostics(
                    leaks,
                    header=f"{len(leaks)} message leak(s) at finalize:",
                ),
                diagnostics=leaks,
            )
        return leaks


def _sig_str(signature: tuple) -> str:
    """Human-readable rendering of a collective signature tuple."""
    if not signature:
        return "()"
    return "(" + ", ".join(f"{k}={v!r}" for k, v in signature) + ")"
