"""Shared state of a simulated SPMD world.

A :class:`SpmdContext` owns the mailboxes through which the ranks of a
world exchange messages, the rendezvous backing collective setup
operations (split and shrink), and an abort flag so one rank's
exception unblocks everyone instead of deadlocking the world.  Every
blocking wait here is woken by the change it waits for
(:class:`_CountedWait`).

Messages are addressed by ``(comm_id, destination world rank)`` and
matched on ``(source comm rank, tag)``, giving each (sub)communicator an
isolated message space with MPI's per-channel FIFO ordering guarantee.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import CommunicatorError, RankFailedError, WorldAbortedError

__all__ = ["SpmdContext", "Envelope"]

# Default seconds a blocking receive waits before declaring deadlock.
# Functional tests run in milliseconds; a stuck match is a bug, not load.
DEFAULT_RECV_TIMEOUT = 120.0


@dataclass
class Envelope:
    """A message in flight: a payload plus its delivery metadata.

    ``moved`` records whether the payload was transferred by reference
    (zero-copy move semantics) rather than snapshotted; moved ndarray
    payloads are frozen (read-only) so sender-side reuse cannot race
    the receiver.  ``nbytes`` carries the sender's modeled wire size so
    receive-side tallies never re-measure the payload.

    ``seq`` and ``checksum`` are populated only under
    ``run_spmd(resilience=True)``: ``seq`` is the
    sender's per-(destination, tag) sequence number (receivers discard
    duplicates), ``checksum`` the payload digest receivers verify to
    detect injected bit corruption and wait for the retransmission.
    """

    payload: Any
    moved: bool = False
    nbytes: int = 0
    # Sender provenance (a repro.sanitize MoveOrigin / call-site record),
    # populated only when a Sanitizer is attached to the world.
    origin: Any = None
    seq: int | None = None
    checksum: int | None = None


class _CountedWait:
    """A condition whose wakes are counted: the one wait rule of the runtime.

    A blocked rank sleeps until the change it waits for, or its
    deadline — never on a timer.  :meth:`wait_for` runs ``ready()``
    under the lock and returns its first non-``None`` value; between
    tries it runs ``poll()`` *outside* the lock (a poll may take other
    locks and may raise: it is how a wait that can never be satisfied —
    a dead partner, a revoked epoch, an aborted world — ends early).

    Memory model.  Two kinds of change end a wait.  A queued message
    or a contribution changes only under this lock, followed by
    ``notify_all``, and ``ready()`` runs under the lock before every
    sleep, so none of it is missed.  The world state — what ``poll()``
    reads, and a shrink's ``ready()`` reads of rank status — lives
    elsewhere and changes under other locks; each such change is
    followed by :meth:`wake_all` on every waiter, which counts the wake
    under this lock.  The loop sleeps only when the
    count has not moved since the last poll *started*, so a change that
    lands while ``poll()`` runs is never slept through — the loop polls
    again at once.  The state a poll reads and the wake that follows
    every change to it:

    * rank status — ``mark_failed`` / ``mark_finalized`` →
      ``wake_all_mailboxes`` → ``wake_rendezvous``;
    * the revocation threshold and the recovering set —
      ``revoke_current`` (the same two wakes; a shrink's freeze clears
      the set under its own table's lock);
    * the abort flag — ``abort``;
    * on a worker, the world table the master pushes — ``apply_oob``;
    * on a worker, a departed partner's drain count — ``accept_put``,
      the link's EOF, and the ``DRAIN_TIMEOUT`` alarm.

    The only timer is ``interval``, which the sanitizer's stall
    watchdog passes because a stall is measured in time.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._wakes = 0  # wake_all calls so far

    def wake_all(self) -> None:
        """Make every waiter run its poll again (counted)."""
        with self._cond:
            self._wakes += 1
            self._cond.notify_all()

    def wait_for(self, ready: Callable[[], Any], poll: Callable[[], None],
                 timeout: float, timed_out: Callable[[], str],
                 interval: float | None = None) -> Any:
        """Block until ``ready()`` returns a value; raise
        :class:`~repro.errors.CommunicatorError` with ``timed_out()``
        after ``timeout`` seconds.  ``poll()`` runs before the first
        sleep and after every wake."""
        deadline = time.monotonic() + timeout
        seen = None  # the wake count the last poll started after
        while True:
            with self._cond:
                result = ready()
                if result is not None:
                    return result
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicatorError(timed_out())
                if seen == self._wakes:
                    self._cond.wait(remaining if interval is None
                                    else min(interval, remaining))
                seen = self._wakes
            poll()


class _Mailbox(_CountedWait):
    """Per-(comm, destination-rank) mailbox with blocking matched receive."""

    def __init__(self, abort_event: threading.Event) -> None:
        super().__init__()
        self._queues: dict[tuple[int, int], deque[Envelope]] = defaultdict(deque)
        self._abort = abort_event

    def put(self, source: int, tag: int, envelope: Envelope) -> None:
        with self._cond:
            self._queues[(source, tag)].append(envelope)
            self._cond.notify_all()

    def get(
        self,
        source: int,
        tag: int,
        timeout: float,
        poll: Callable[[], None],
        interval: float | None = None,
    ) -> Envelope:
        """Blocking matched receive (see :class:`_CountedWait`).

        ``poll`` is the hook through which the rank-failure detector
        and the sanitizer's deadlock watchdog interrupt a receive that
        can never be satisfied; it must not be called while holding any
        mailbox lock (it may inspect other mailboxes).
        """
        key = (source, tag)

        def ready() -> Envelope | None:
            q = self._queues.get(key)
            if q:
                return q.popleft()
            if self._abort.is_set():
                raise WorldAbortedError("SPMD world aborted while receiving")
            return None

        return self.wait_for(
            ready, poll, timeout,
            lambda: (f"receive timed out after {timeout}s waiting for "
                     f"(source={source}, tag={tag}) — likely deadlock"),
            interval,
        )

    def has(self, source: int, tag: int) -> bool:
        """True when a matched message is queued (no dequeue)."""
        with self._cond:
            q = self._queues.get((source, tag))
            return bool(q)

    def pending(self) -> dict[tuple[int, int], int]:
        """Snapshot of queued message counts per (source, tag)."""
        with self._cond:
            return {k: len(q) for k, q in self._queues.items() if q}

    def pending_envelopes(self) -> dict[tuple[int, int], list[Envelope]]:
        """Snapshot of the queued envelopes per (source, tag)."""
        with self._cond:
            return {k: list(q) for k, q in self._queues.items() if q}

    def try_get(self, source: int, tag: int) -> Envelope | None:
        """Non-blocking matched receive; None when no message is ready."""
        with self._cond:
            if self._abort.is_set():
                raise WorldAbortedError("SPMD world aborted while receiving")
            q = self._queues.get((source, tag))
            if q:
                return q.popleft()
            return None


class _Rendezvous(_CountedWait):
    """One collective setup (a split or a shrink) of one communicator.

    Every participant adds a value; ``complete(contributions)`` runs
    under the table's lock each time a waiter looks, and its first
    non-``None`` return is the result every participant gets — so what
    it allocates (communicator ids) is allocated once.  A split
    completes when all of its members have contributed; a shrink when
    the contributors cover every member still running, so a member that
    dies mid-shrink simply falls out of it.  Wakes are counted, as in
    :class:`_Mailbox` (the memory model is :class:`_CountedWait`'s).
    """

    def __init__(self) -> None:
        super().__init__()
        self._contributions: dict[int, Any] = {}
        self._result: Any = None

    def contribute(
        self,
        rank: int,
        value: Any,
        complete: Callable[[dict], Any],
        poll: Callable[[set], None],
        timeout: float,
        timed_out: Callable[[dict], str],
    ) -> Any:
        """Add ``value`` and block for the result.

        ``poll(contributed)`` runs outside the lock with the ranks that
        have contributed so far, and may raise to end the wait (a split
        blocked on a member that died fails fast with
        :class:`~repro.errors.RankFailedError`).  ``timed_out`` names
        what the wait was still missing.
        """
        with self._cond:
            if rank in self._contributions:
                raise CommunicatorError(
                    f"rank {rank} contributed twice to one rendezvous")
            self._contributions[rank] = value

        def ready() -> Any:
            if self._result is None:
                self._result = complete(self._contributions)
                if self._result is not None:
                    self._cond.notify_all()
            return self._result

        def poll_contributed() -> None:
            with self._cond:
                contributed = set(self._contributions)
            poll(contributed)

        return self.wait_for(ready, poll_contributed, timeout,
                             lambda: timed_out(self._contributions))


class SpmdContext:
    """All shared state for one simulated world of ``world_size`` ranks."""

    def __init__(
        self,
        world_size: int,
        *,
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
        comm_trace=None,
        tracer=None,
        sanitizer=None,
        faults=None,
        resilience=False,
        transport=None,
        recorder=None,
    ) -> None:
        if world_size <= 0:
            raise CommunicatorError("world size must be positive")
        if transport is None:
            from .transport.threads import ThreadTransport

            transport = ThreadTransport()
        self.transport = transport
        self.world_size = world_size
        self.recv_timeout = recv_timeout
        self.comm_trace = comm_trace
        self.tracer = tracer  # repro.obs.Tracer, or None
        self.recorder = recorder  # repro.obs.FlightRecorder, or None
        # The observers of the message path, by name: what every rank
        # thread is bound to and the communicator emits events to (see
        # the rank scope in repro.obs._hook).
        # Empty = unobserved.
        self.observers = {
            name: observer
            for name, observer in (("comm_trace", comm_trace),
                                   ("tracer", tracer),
                                   ("recorder", recorder))
            if observer is not None
        }
        self.sanitizer = sanitizer  # repro.sanitize.Sanitizer, or None
        self.faults = faults  # repro.faults.FaultInjector, or None
        self.resilience = resilience  # run_spmd(resilience=), a bool
        # The resolved configuration of this world (run_spmd fills it
        # in); every exported artifact carries it.
        self.run_config: dict | None = None
        # Sanitizer deadlock report (wait-for-graph edges + open spans),
        # stored by the watchdog just before it aborts the world so the
        # postmortem bundle can carry it.
        self.last_deadlock: dict | None = None
        self.abort_event = threading.Event()
        self.abort_reason: str | None = None
        self._mailboxes: dict[tuple[int, int], _Mailbox] = {}
        self._mailbox_lock = threading.Lock()
        self._comm_id_counter = itertools.count(1)
        self._comm_id_lock = threading.Lock()
        self._last_comm_id = 0
        # World ranks of every communicator carved so far, by id (the
        # sanitizer names the members that never reached a collective).
        self.comm_members: dict[int, list[int]] = {0: list(range(world_size))}
        # Split and shrink rendezvous, by ("split"|"shrink", parent
        # comm id, the parent's sequence number of that kind).
        self._rendezvous: dict[tuple[str, int, int], _Rendezvous] = {}
        self._rendezvous_lock = threading.Lock()
        # Epoch revocation (ULFM MPI_Comm_revoke analogue): operations on
        # any communicator with id below this threshold raise
        # CommRevokedError.  Monotone non-decreasing; 0 disables.
        self.revoked_below = 0
        self.revoke_reason: str | None = None
        # Per-rank revocation *visibility*: entry-point checks compare
        # against the threshold each rank has observed — at a blocking
        # wait or at its own revoke() — never the live global above.  A
        # survivor is therefore interrupted at an op index that is a
        # function of program state alone, not of when the asynchronous
        # revocation happened to land, which keeps fault-injection op
        # counters and rng draw streams replayable.
        self._revoked_seen: dict[int, int] = defaultdict(int)
        # World ranks between "caught a failure" (their revoke) and
        # "joined the recovery rendezvous" (table freeze).  A blocked
        # wait on a revoked epoch raises only when the awaited partner
        # is dead, finalized, or in this set — i.e. when the message
        # can never arrive — so consume-vs-raise is never a wall-clock
        # race against a still-progressing peer.
        self._recovering: set[int] = set()
        # Per-rank "node memory" for in-memory distributed checkpoints,
        # one slot per world rank (see node_store).
        self._node_stores: list[dict] = [{} for _ in range(world_size)]
        # Lifecycle of each world rank: "running" -> "finalized"|"failed".
        # Blocked receives consult this (via their poll hook) so waiting
        # on a rank that can never send again raises RankFailedError
        # instead of deadlocking until the receive timeout.
        self._rank_status = ["running"] * world_size
        self._status_lock = threading.Lock()
        # Transport hooks: run on abort, and on every change of the
        # world table a blocked receive consults (rank status, the
        # recovering set, the revocation threshold), so backends with
        # out-of-process ranks can push the change to their workers.
        self._abort_hooks: list = []
        self._state_hooks: list = []
        # Pending-inbox summaries of out-of-process ranks (their
        # mailboxes live in the workers): world rank -> rows shaped like
        # pending_messages() yields.  Written by the transport.
        self.inbox_reports: dict[int, list[dict]] = {}
        if sanitizer is not None:
            sanitizer.attach(self)

    # -- mailboxes -----------------------------------------------------
    def mailbox(self, comm_id: int, world_rank: int) -> _Mailbox:
        """The (lazily created) mailbox of one rank in one communicator."""
        key = (comm_id, world_rank)
        with self._mailbox_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = _Mailbox(self.abort_event)
                self._mailboxes[key] = box
            return box

    def mailboxes(self):
        """Snapshot of ``((comm_id, world_rank), mailbox)`` pairs."""
        with self._mailbox_lock:
            return list(self._mailboxes.items())

    def pending_messages(self) -> list[dict]:
        """One row per undelivered message in the world, sender order
        kept within each ``(comm_id, dest, source, tag)``.

        What the finalize-time leak report and the postmortem's
        ``in_flight`` section read: this process's mailboxes, plus the
        summaries out-of-process ranks reported of theirs.
        """
        rows = []
        for (comm_id, dest_world), box in self.mailboxes():
            for (source, tag), envs in sorted(box.pending_envelopes().items()):
                rows.extend(
                    {"comm_id": comm_id, "dest": dest_world, "source": source,
                     "tag": tag, "nbytes": env.nbytes, "moved": env.moved,
                     "origin": env.origin}
                    for env in envs
                )
        for rank in sorted(self.inbox_reports):
            rows.extend(self.inbox_reports[rank])
        return rows

    # -- delivery (routed through the transport) -----------------------
    def deliver(self, comm_id: int, dest_world: int, source: int,
                tag: int, envelope: Envelope):
        """Hand one envelope to the transport; the error that lost it,
        or None."""
        return self.transport.deliver(
            self, comm_id, dest_world, source, tag, envelope
        )

    def wake_all_mailboxes(self) -> None:
        """Wake every blocked receiver so it re-runs its poll hook."""
        for _key, box in self.mailboxes():
            box.wake_all()
        self.wake_rendezvous()

    def wake_rendezvous(self) -> None:
        """Wake ranks blocked in split/shrink rendezvous (re-poll)."""
        with self._rendezvous_lock:
            tables = list(self._rendezvous.values())
        for table in tables:
            table.wake_all()

    # -- rank lifecycle ------------------------------------------------
    def rank_status(self, world_rank: int) -> str:
        """``"running"``, ``"finalized"``, or ``"failed"``."""
        with self._status_lock:
            return self._rank_status[world_rank]

    def mark_finalized(self, world_rank: int) -> None:
        """Record a rank's normal return and wake blocked receivers."""
        with self._status_lock:
            if self._rank_status[world_rank] == "running":
                self._rank_status[world_rank] = "finalized"
        self.wake_all_mailboxes()
        self._state_changed()

    def mark_failed(self, world_rank: int) -> None:
        """Record a rank's death (exception) and wake blocked receivers."""
        with self._status_lock:
            self._rank_status[world_rank] = "failed"
        self.wake_all_mailboxes()
        self._state_changed()

    def emit(self, rank: int, kind: str, name: str | None = None,
             **detail) -> None:
        """One event *about* ``rank`` from outside its thread (a link
        the master found dead) to every observer."""
        for observer in self.observers.values():
            observer.on_event(rank, kind, name, detail)

    def failed_ranks(self) -> list[int]:
        """World ranks currently marked failed."""
        with self._status_lock:
            return [
                r for r, s in enumerate(self._rank_status) if s == "failed"
            ]

    def running_world_ranks(self) -> set[int]:
        """World ranks still marked running."""
        with self._status_lock:
            return {
                r for r, s in enumerate(self._rank_status) if s == "running"
            }

    # -- abort handling ------------------------------------------------
    def add_abort_hook(self, hook) -> None:
        """Register ``hook(reason)`` to run on :meth:`abort`.

        The process transports use this to push the abort out-of-band
        to every worker process.
        """
        self._abort_hooks.append(hook)

    def add_state_hook(self, hook) -> None:
        """Register ``hook()`` to run after each world-table change.

        The table is what a blocked receive consults: every rank's
        status, the recovering set, the revocation threshold.  The
        process transports push a snapshot of it to their workers from
        here.
        """
        self._state_hooks.append(hook)

    def _state_changed(self) -> None:
        for hook in self._state_hooks:
            hook()

    def abort(self, reason: str) -> None:
        """Mark the world dead and wake every blocked receiver."""
        self.abort_reason = reason
        self.abort_event.set()
        self.wake_all_mailboxes()
        for hook in self._abort_hooks:
            hook(reason)

    def check_alive(self) -> None:
        """Raise WorldAbortedError if the world has been aborted."""
        if self.abort_event.is_set():
            raise WorldAbortedError(
                f"SPMD world aborted: {self.abort_reason or 'unknown reason'}"
            )

    # -- collective setup ----------------------------------------------
    def allocate_comm_id(self) -> int:
        """Hand out a fresh communicator id (thread-safe)."""
        with self._comm_id_lock:
            self._last_comm_id = next(self._comm_id_counter)
            return self._last_comm_id

    def _rendezvous_at(self, key: tuple[str, int, int]) -> _Rendezvous:
        with self._rendezvous_lock:
            table = self._rendezvous.get(key)
            if table is None:
                table = self._rendezvous[key] = _Rendezvous()
            return table

    def split_rendezvous(
        self,
        parent_comm_id: int,
        seqno: int,
        size: int,
        rank: int,
        value: tuple,
        members: list[int],
        world_rank: int,
    ) -> list[dict]:
        """One rank's contribution to a collective split, blocking for all.

        ``value`` is one ``(color, key)`` pair per split carved in this
        rendezvous (a plain ``split`` is the one-pair case; a processor
        grid carves every mode fiber at once).  Runs entirely on the side
        that owns the world state (the caller for the threads backend,
        the master for the process backend): grouping, ordering, *and the
        new communicator-id allocation* happen once, when the last
        member's contribution completes the rendezvous, so ids are handed
        out exactly once per color group regardless of which process
        asked — increasing in pair order, then color order.  Returns one
        ``{color: (new_comm_id, world_members, old_ranks)}`` map per pair.
        """
        def complete(contributions: dict[int, tuple]) -> list[dict] | None:
            if len(contributions) < size:
                return None
            out = []
            for i in range(len(value)):
                groups: dict[int, list] = {}
                for old_rank, pairs in sorted(contributions.items()):
                    c, k = pairs[i]
                    if c is not None:
                        groups.setdefault(c, []).append((k, old_rank))
                carved = {}
                for c in sorted(groups):
                    group = sorted(groups[c])
                    new_id = self.allocate_comm_id()
                    carved[c] = (new_id, [members[old] for _, old in group],
                                 [old for _, old in group])
                    self.comm_members[new_id] = carved[c][1]
                out.append(carved)
            return out

        def poll(contributed: set) -> None:
            # A split blocked on a member that can never contribute —
            # dead, finalized, or off recovering a revoked epoch — can
            # never complete; fail fast like a blocked receive would.
            # Members that are still making progress get to contribute
            # even after a revocation lands, so whether this split
            # completes or raises is decided by program state alone.
            self.check_alive()
            revoked = parent_comm_id < self.revoked_below
            for old, world in enumerate(members):
                if old in contributed:
                    continue
                status = self.rank_status(world)
                if revoked and (status != "running"
                                or self.is_recovering(world)):
                    self.note_revocation_seen(world_rank)
                    self.check_revoked(parent_comm_id)
                if status != "running":
                    raise RankFailedError(
                        f"rank {world_rank} blocked in split "
                        f"but member rank {world} already {status}"
                    )

        def timed_out(contributions: dict) -> str:
            missing = [members[old] for old in range(size)
                       if old not in contributions]
            return (f"split timed out after {self.recv_timeout}s waiting "
                    f"for ranks {missing} — likely deadlock")

        table = self._rendezvous_at(("split", parent_comm_id, seqno))
        return table.contribute(rank, value, complete, poll,
                                self.recv_timeout, timed_out)

    def shrink_rendezvous(
        self,
        parent_comm_id: int,
        seqno: int,
        rank: int,
        world_rank: int,
        members: list[int],
    ) -> tuple[int, list[int]]:
        """One survivor's contribution to a shrink, blocking for the rest.

        Like :meth:`split_rendezvous`, this runs where the world state
        lives, so the survivor discovery (``running_world_ranks``) and
        the post-revocation communicator-id allocation are a single
        authoritative computation.  Returns ``(new_comm_id, ordered old
        ranks)``.
        """
        def survivors() -> set[int]:
            running = self.running_world_ranks()
            return {old for old, w in enumerate(members) if w in running}

        def complete(contributions: dict) -> tuple[int, list[int]] | None:
            alive = survivors()
            if not alive <= contributions.keys():
                return None
            # Freeze point: every survivor has arrived, the recovery is
            # committed — nobody is "recovering" any more, so the next
            # failure round starts with a clean visibility slate.  The
            # new id is allocated after every survivor's revocation, so
            # the fresh epoch is never poisoned by its threshold.
            self._recovering.clear()
            self._state_changed()
            new_id = self.allocate_comm_id()
            ordered = sorted(alive)
            self.comm_members[new_id] = [members[old] for old in ordered]
            return new_id, ordered

        def timed_out(contributions: dict) -> str:
            missing = sorted(survivors() - contributions.keys())
            return (f"shrink timed out after {self.recv_timeout}s waiting "
                    f"for survivors {missing}")

        table = self._rendezvous_at(("shrink", parent_comm_id, seqno))
        return table.contribute(rank, world_rank, complete,
                                lambda contributed: self.check_alive(),
                                self.recv_timeout, timed_out)

    # -- epoch revocation ----------------------------------------------
    def revoke_current(self, reason: str, world_rank: int | None = None) -> None:
        """Poison every communicator allocated so far (MPI_Comm_revoke).

        Any operation on a communicator whose id predates this call
        raises :class:`~repro.errors.CommRevokedError`; blocked
        receivers and rendezvous waiters are woken so they observe it
        immediately.  Communicator ids allocated *after* the revocation
        (the post-shrink epoch) are unaffected.  Idempotent and safe to
        call concurrently from several survivors: the threshold only
        ever grows, and a shrink's :class:`_Rendezvous` allocates the new
        epoch's id strictly after every survivor has revoked and
        contributed.
        """
        with self._comm_id_lock:
            threshold = self._last_comm_id + 1
            if threshold > self.revoked_below:
                self.revoked_below = threshold
                self.revoke_reason = reason
        if world_rank is not None:
            # The revoking rank has by definition observed the
            # revocation, and is now in recovery: peers blocked on a
            # message from it may stop waiting.
            self._recovering.add(world_rank)
            self.note_revocation_seen(world_rank)
        self.wake_all_mailboxes()
        self._state_changed()

    def check_revoked(self, comm_id: int) -> None:
        """Raise CommRevokedError when ``comm_id`` belongs to a revoked epoch."""
        if comm_id < self.revoked_below:
            from ..errors import CommRevokedError

            raise CommRevokedError(
                f"communicator {comm_id} was revoked: "
                f"{self.revoke_reason or 'rank failure'}"
            )

    def revocation_seen(self, world_rank: int) -> int:
        """Threshold ``world_rank`` has observed (gates entry checks)."""
        return self._revoked_seen[world_rank]

    def note_revocation_seen(self, world_rank: int) -> None:
        """Record that ``world_rank`` observed the current revocation."""
        if self.revoked_below > self._revoked_seen[world_rank]:
            self._revoked_seen[world_rank] = self.revoked_below

    def is_recovering(self, world_rank: int) -> bool:
        """True between a rank's revoke() and the next rendezvous freeze."""
        return world_rank in self._recovering

    def recovering_ranks(self) -> list[int]:
        """World ranks currently between revoke() and a rendezvous freeze."""
        return sorted(self._recovering)

    # -- node-local checkpoint store -----------------------------------
    def node_store(self, holder: int) -> dict:
        """``holder``'s node-local slot: ``{key: entry}``.

        Memory model.  No lock: every slot is created in ``__init__``,
        before any rank thread starts, and only its holder's thread
        reads or writes it (buddy copies travel as real messages), so
        no two threads ever touch one dict.  Rank death makes the dead
        rank's slot unreachable — exactly the failure model of
        node-local RAM checkpoints.
        """
        return self._node_stores[holder]
