"""Shared state of a simulated SPMD world.

A :class:`SpmdContext` owns the mailboxes through which the ranks of a
world exchange messages, the coordination structures backing collective
setup operations (communicator split), and an abort flag so one rank's
exception unblocks everyone instead of deadlocking the world.

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

# Seconds between dead-partner/revocation polls while blocked in a
# receive or a rendezvous (split/shrink) of a world with faults or
# resilience.
POLL_INTERVAL = 0.05


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


class _Mailbox:
    """Per-(comm, destination-rank) mailbox with blocking matched receive."""

    def __init__(self, abort_event: threading.Event) -> None:
        self._cond = threading.Condition()
        self._queues: dict[tuple[int, int], deque[Envelope]] = defaultdict(deque)
        self._abort = abort_event
        self._wakes = 0  # wake_all calls so far

    def put(self, source: int, tag: int, envelope: Envelope) -> None:
        with self._cond:
            self._queues[(source, tag)].append(envelope)
            self._cond.notify_all()

    def get(
        self,
        source: int,
        tag: int,
        timeout: float,
        poll: Callable[[], None] | None = None,
        interval: float | None = None,
    ) -> Envelope:
        """Blocking matched receive.

        ``poll``, when given, is invoked *outside* the mailbox lock
        before the first wait and each time the wait wakes without a
        match (message on another key, world state change, or every
        ``interval`` seconds).  It may raise to abort the receive — the
        hook through which the sanitizer's deadlock watchdog and the
        rank-failure detector interrupt a wait that can never be
        satisfied.  ``poll`` must not be called while holding any
        mailbox lock (it may inspect other mailboxes), which is why the
        loop releases the condition first — and why a :meth:`wake_all`
        that lands while ``poll`` runs is counted, so the loop polls
        again at once instead of sleeping through it.
        """
        key = (source, tag)
        deadline = time.monotonic() + timeout
        step = timeout if interval is None else min(interval, timeout)
        seen = None  # the wake count the last poll started after
        while True:
            with self._cond:
                q = self._queues.get(key)
                if q:
                    return q.popleft()
                if self._abort.is_set():
                    raise WorldAbortedError(
                        "SPMD world aborted while receiving"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicatorError(
                        f"receive timed out after {timeout}s waiting for "
                        f"(source={source}, tag={tag}) — likely deadlock"
                    )
                if seen == self._wakes:
                    self._cond.wait(timeout=min(step, remaining))
                seen = self._wakes
            if poll is not None:
                poll()

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

    def wake_all(self) -> None:
        with self._cond:
            self._wakes += 1
            self._cond.notify_all()


class _SplitBarrier:
    """Rendezvous used by collective setup ops (split/dup).

    Every member of the parent communicator contributes a value; the
    last arrival computes the result via ``combine`` and publishes it.
    A fresh instance serves each collective call, keyed by the parent's
    per-communicator operation sequence number.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._cond = threading.Condition()
        self._contributions: dict[int, Any] = {}
        self._result: Any = None
        self._done = False

    def contribute(
        self,
        rank: int,
        value: Any,
        combine,
        timeout: float,
        poll: Callable[[set], None] | None = None,
        interval: float | None = None,
    ):
        """Contribute and block until every member has (honors ``timeout``).

        ``poll``, when given, runs (outside the lock) with the set of
        ranks that have contributed so far each time the wait wakes
        without a result — every ``interval`` seconds, or whenever the
        context wakes rendezvous tables on an abort/rank-death/revoke.
        It may raise to abort the wait, which is how a split blocked on
        a member that has already died fails fast with
        :class:`~repro.errors.RankFailedError` instead of sitting out
        the full timeout.
        """
        deadline = time.monotonic() + timeout
        step = timeout if interval is None else min(interval, timeout)
        with self._cond:
            if rank in self._contributions:
                raise CommunicatorError(f"rank {rank} contributed twice to a split")
            self._contributions[rank] = value
            if len(self._contributions) == self._size:
                self._result = combine(self._contributions)
                self._done = True
                self._cond.notify_all()
                return self._result
        while True:
            with self._cond:
                if self._done:
                    return self._result
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicatorError(
                        "collective setup timed out — likely deadlock"
                    )
                self._cond.wait(timeout=min(step, remaining))
                contributed = set(self._contributions)
            if poll is not None:
                poll(contributed)

    def wake(self) -> None:
        """Wake blocked contributors so they re-run their poll hooks."""
        with self._cond:
            self._cond.notify_all()


class _ShrinkTable:
    """Rendezvous for :meth:`Communicator.shrink` (ULFM shrink analogue).

    Unlike :class:`_SplitBarrier`, the membership is *discovered*, not
    fixed: the table freezes its result once every member of the parent
    communicator that is still running has contributed.  Ranks that die
    mid-shrink simply fall out of the survivor set on the next poll, so
    the rendezvous tolerates exactly the failures it exists to recover
    from.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._contributions: dict[int, int] = {}  # old rank -> world rank
        self._result: tuple[int, list[int]] | None = None

    def contribute(
        self,
        rank: int,
        world_rank: int,
        running_old_ranks: Callable[[], set],
        allocate_comm_id: Callable[[], int],
        timeout: float,
        interval: float,
    ) -> tuple[int, list[int]]:
        """Register a survivor; returns ``(new_comm_id, ordered old ranks)``.

        ``running_old_ranks`` is re-evaluated on every wake (it may also
        raise, e.g. on world abort); the freeze happens when the set of
        contributors covers every still-running member, and the *new*
        communicator id is allocated inside the freeze — after any
        survivor's revocation, so the fresh epoch is never poisoned by
        the revocation threshold.
        """
        deadline = time.monotonic() + timeout
        while True:
            survivors = running_old_ranks()
            with self._cond:
                self._contributions.setdefault(rank, world_rank)
                if self._result is None and survivors <= set(self._contributions):
                    ordered = sorted(r for r in self._contributions if r in survivors)
                    self._result = (allocate_comm_id(), ordered)
                    self._cond.notify_all()
                if self._result is not None:
                    return self._result
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicatorError(
                        f"shrink timed out after {timeout}s waiting for "
                        f"survivors {sorted(survivors - set(self._contributions))}"
                    )
                self._cond.wait(timeout=min(interval, remaining))

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()


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
        self._split_tables: dict[tuple[int, int], _SplitBarrier] = {}
        self._split_lock = threading.Lock()
        self._shrink_tables: dict[tuple[int, int], _ShrinkTable] = {}
        self._shrink_lock = threading.Lock()
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
        # Per-rank "node memory" for in-memory distributed checkpoints:
        # holder world rank -> {key: entry}.  A holder only ever reads
        # its *own* slot (buddy copies travel as real messages), so rank
        # death makes the dead rank's slot unreachable — exactly the
        # failure model of node-local RAM checkpoints.
        self._node_store: dict[int, dict] = defaultdict(dict)
        self._node_store_lock = threading.Lock()
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
                tag: int, envelope: Envelope) -> None:
        """Hand one envelope to the transport (blocking handoff)."""
        self.transport.deliver(
            self, comm_id, dest_world, source, tag, envelope
        )

    def deliver_async(self, comm_id: int, dest_world: int, source: int,
                      tag: int, envelope: Envelope):
        """Nonblocking handoff; a completion token, or None when done."""
        return self.transport.deliver_async(
            self, comm_id, dest_world, source, tag, envelope
        )

    def wake_all_mailboxes(self) -> None:
        """Wake every blocked receiver so it re-runs its poll hook."""
        for _key, box in self.mailboxes():
            box.wake_all()
        self.wake_rendezvous()

    def wake_rendezvous(self) -> None:
        """Wake ranks blocked in split/shrink rendezvous (re-poll)."""
        with self._split_lock:
            split_tables = list(self._split_tables.values())
        for table in split_tables:
            table.wake()
        with self._shrink_lock:
            shrink_tables = list(self._shrink_tables.values())
        for table in shrink_tables:
            table.wake()

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
        with self._mailbox_lock:
            boxes = list(self._mailboxes.values())
        for box in boxes:
            box.wake_all()
        self.wake_rendezvous()
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

    def split_barrier(self, parent_comm_id: int, seqno: int, size: int) -> _SplitBarrier:
        """Rendezvous table for the ``seqno``-th collective setup op."""
        key = (parent_comm_id, seqno)
        with self._split_lock:
            table = self._split_tables.get(key)
            if table is None:
                table = _SplitBarrier(size)
                self._split_tables[key] = table
            return table

    def shrink_table(self, parent_comm_id: int, seqno: int) -> _ShrinkTable:
        """Rendezvous table for the ``seqno``-th shrink of one communicator."""
        key = (parent_comm_id, seqno)
        with self._shrink_lock:
            table = self._shrink_tables.get(key)
            if table is None:
                table = _ShrinkTable()
                self._shrink_tables[key] = table
            return table

    def _rendezvous_interval(self) -> float:
        """Poll cadence for rendezvous waits (dead-member detection)."""
        interval = (
            self.sanitizer.watchdog_interval if self.sanitizer is not None
            else self.fault_poll_interval
        )
        # Dead-member detection even without faults or a sanitizer.
        return 0.25 if interval is None else interval

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
        new communicator-id allocation* happen once, inside the last
        contributor's combine, so ids are handed out exactly once per
        color group regardless of which process asked — increasing in
        pair order, then color order.  Returns one ``{color:
        (new_comm_id, world_members, old_ranks)}`` map per pair.
        """
        table = self.split_barrier(parent_comm_id, seqno, size)

        def combine(contributions: dict[int, tuple]) -> list[dict]:
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

        return table.contribute(
            rank, value, combine, self.recv_timeout,
            poll=poll, interval=self._rendezvous_interval(),
        )

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
        table = self.shrink_table(parent_comm_id, seqno)

        def running_old_ranks() -> set:
            self.check_alive()
            running = self.running_world_ranks()
            return {i for i, w in enumerate(members) if w in running}

        def allocate() -> int:
            # Freeze point: every survivor has arrived, the recovery is
            # committed — nobody is "recovering" any more, so the next
            # failure round starts with a clean visibility slate.
            self._recovering.clear()
            self._state_changed()
            return self.allocate_comm_id()

        interval = self.fault_poll_interval or 0.25
        new_id, ordered = table.contribute(
            rank, world_rank, running_old_ranks,
            allocate, self.recv_timeout, interval,
        )
        self.comm_members[new_id] = [members[old] for old in ordered]
        return new_id, ordered

    # -- epoch revocation ----------------------------------------------
    def revoke_current(self, reason: str, world_rank: int | None = None) -> None:
        """Poison every communicator allocated so far (MPI_Comm_revoke).

        Any operation on a communicator whose id predates this call
        raises :class:`~repro.errors.CommRevokedError`; blocked
        receivers and rendezvous waiters are woken so they observe it
        immediately.  Communicator ids allocated *after* the revocation
        (the post-shrink epoch) are unaffected.  Idempotent and safe to
        call concurrently from several survivors: the threshold only
        ever grows, and :class:`_ShrinkTable` allocates the new epoch's
        id strictly after every survivor has revoked and contributed.
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

    # -- fault-tolerance plumbing --------------------------------------
    @property
    def fault_poll_interval(self) -> float | None:
        """Seconds between dead-partner polls while blocked (or None).

        Populated when faults or resilience are active so blocked
        receives notice revocation and rank death promptly even without
        the sanitizer's watchdog.
        """
        if self.resilience or self.faults is not None:
            return POLL_INTERVAL
        return None

    # -- node-local checkpoint store -----------------------------------
    def store_put(self, holder: int, key, value) -> None:
        """Stash ``value`` in ``holder``'s node-local slot."""
        with self._node_store_lock:
            self._node_store[holder][key] = value

    def store_items(self, holder: int) -> list[tuple]:
        """Snapshot of ``holder``'s (key, value) pairs."""
        with self._node_store_lock:
            return list(self._node_store.get(holder, {}).items())

    def store_delete(self, holder: int, key) -> None:
        """Drop one entry from ``holder``'s slot (no-op when absent)."""
        with self._node_store_lock:
            self._node_store.get(holder, {}).pop(key, None)
