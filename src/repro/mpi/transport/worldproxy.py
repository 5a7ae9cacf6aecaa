"""The two halves of a world whose ranks are processes.

The procs and sockets backends share one execution model: every rank
is a worker process that owns its *mailboxes* and exchanges payloads
with its peers over direct worker-to-worker links (the data plane,
:mod:`~repro.mpi.transport.sockets`); the master keeps the **control
plane** only — rank lifecycle and result slots, the split / shrink
rendezvous, revocation and abort fan-out, the sanitizer's collective
matching and wait-for graph, liveness and postmortem assembly.  No
payload crosses the master: not a message, and not a checkpoint block
(the node-local store is a dict in the worker's own memory).

This module holds everything above the wire:

* the worker side — :class:`WorkerContext` (the rank-local
  ``SpmdContext`` stand-in: real mailboxes, its node-local store, a
  copy of the world table, RPCs for what is world state),
  :class:`WorkerSanitizer`, the shard loop over the observers
  (:func:`delta_shards` / :func:`collect_shards`), :class:`Heartbeat`
  (the worker's one periodic frame: liveness, and the recorder's
  stream), and :func:`run_worker`, the worker main loop;
* the master side — :class:`WorldServerMixin`, the RPC dispatch table,
  the world-table push, the lifecycle bookkeeping and the shard merge
  paths.

**The world table.**  A blocked receive runs the one canonical protocol
(``Communicator._recv_blocking``) in the worker and asks its context
three things: a partner's status, whether it is recovering, and the
revocation threshold.  A worker answers from its copy of the table,
which the master pushes out-of-band on the ctl link after every change
(:meth:`WorldServerMixin.push_world`); the ctl reader applies a push and
wakes the local mailboxes, so a blocked receive learns of a dead or
finalized partner without asking.

**Drain by count.**  "Partner gone and nothing matching in my box" may
only end a receive once every frame the partner sent has arrived.  The
table therefore carries, for each rank that can send no more (its
lifecycle report, its ``revoke``), how many frames it sent to each
peer; the receiver holds the partner's status at ``running`` until it
has counted as many off the partner's link (``DRAIN_TIMEOUT`` bounds
the wait; a partner that died without a report is drained when its
link hits EOF).

A transport supplies two duck-typed worker objects:

``channel``
    ``call(method, *args)`` — blocking RPC returning the master's
    reply (raising its error); ``start(state)`` — begin applying the
    master's pushes to ``state.apply_oob``; ``wait_bye()`` — block
    until the master closes the world, returning the frame counts to
    drain (``None`` when the master is gone).
``wire``
    ``send_put(dest_world, comm_id, source, tag, env)`` — ship one
    envelope to a peer, returning ``None`` or the error that lost it;
    ``notify_master(header)`` — best-effort bookkeeping frame
    (heartbeat, injected-fault notice); ``counts()`` — frames per
    peer, ``({dest: sent}, {source: received})``; ``report()`` —
    ``{"sent": <as counts()[0]>, "lost": {dest: (frames, why)}}`` for
    the lifecycle RPC; ``received(source)`` — ``(frames,
    link_at_eof)``; ``start(context)``.

and, master-side, per-rank ``link`` objects carrying ``rank``.
"""

from __future__ import annotations

import importlib
import itertools
import pickle
import sys
import threading
import time

from ...errors import (
    CommunicatorError,
    CommRevokedError,
    RankFailedError,
    WorldAbortedError,
)
from ..context import POLL_INTERVAL, Envelope, _Mailbox
from .codec import (
    decode_envelope,
    decode_exception,
    decode_origin,
    encode_exception,
    encode_origin,
    join_arrays,
)
from .threads import WORLD_COMM_ID, run_rank_program

__all__ = [
    "DRAIN_TIMEOUT",
    "WorkerConfig",
    "WorkerSanitizer",
    "WorkerContext",
    "delta_shards",
    "collect_shards",
    "Heartbeat",
    "run_worker",
    "WorldServerMixin",
]

# Seconds a receiver waits for the frames a departed partner reported
# sending before it accepts that they will never arrive.
DRAIN_TIMEOUT = 30.0

# Pending-inbox rows a heartbeat carries at most (the closing report of
# a rank is complete).
_HEARTBEAT_INBOX_ROWS = 256


class WorkerConfig:
    """World parameters a worker inherits through the fork.

    The ``observers`` and ``faults`` are the *caller's* objects —
    forked by reference so rank-program closures over them keep
    working; the worker ships back post-fork deltas only.
    """

    __slots__ = (
        "world_size", "recv_timeout", "resilience",
        "faults", "observers", "has_sanitizer",
    )

    def __init__(self, context) -> None:
        self.world_size = context.world_size
        self.recv_timeout = context.recv_timeout
        self.resilience = context.resilience
        self.faults = context.faults
        self.observers = context.observers
        self.has_sanitizer = context.sanitizer is not None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerSanitizer:
    """Worker-side sanitizer proxy.

    Collective matching and the wait-for graph are world state and
    forward to the master's sanitizer: one RPC per collective, and two
    small ones per receive that actually blocks (one more per watchdog
    tick while it stays blocked).  Each wait notice carries this rank's
    frame counts, sent and received per peer, which is how the master
    tells a starved cycle from one whose message is still on a link.
    Move-ownership tracking and the failed-partner diagnosis are
    *rank-local*: a worker-resident :class:`~repro.sanitize.Sanitizer`
    ledger registers every buffer this rank relinquishes or receives
    frozen — with the real call sites, since moves originate in this
    very address space (receive-side origins arrive in the envelope
    wire metadata) — and inspects the rank's own mailbox.  The ledger's
    findings ship home with the lifecycle shards.
    """

    def __init__(self, channel, wire) -> None:
        from ...sanitize import Sanitizer

        self._channel = channel
        self._wire = wire
        self.watchdog_interval = Sanitizer.watchdog_interval
        # Rank-local move/provenance ledger; never finalized (leak
        # reporting is master-side world state).
        self._local = Sanitizer()
        self._wait: tuple | None = None  # the blocked receive: (edge, box)
        self._registered = False  # whether the master knows of it

    def check_collective(self, comm_id, seq, world_rank, op, signature,
                         comm_size) -> None:
        from ...sanitize.diagnostics import capture_call_site

        self._channel.call("check_collective", comm_id, seq, world_rank, op,
                           tuple(signature), comm_size, capture_call_site())

    # Move/provenance hooks: the rank-local ledger.
    def note_send(self, world_rank):
        return self._local.note_send(world_rank)

    def note_move(self, payload, world_rank, op, dest=None):
        return self._local.note_move(payload, world_rank, op, dest=dest)

    def note_received_move(self, payload, world_rank, origin) -> None:
        self._local.note_received_move(payload, world_rank, origin)

    def explain_readonly_write(self, exc, rank):
        return self._local.explain_readonly_write(exc, rank)

    def describe_failed_partner(self, *args, **kwargs):
        return self._local.describe_failed_partner(*args, **kwargs)

    def local_findings(self) -> list:
        """Diagnostics recorded by the rank-local ledger (for shipping)."""
        return list(self._local.findings)

    # Wait-for graph: notices to the master.
    def _notice(self, stalled: bool) -> None:
        edge, box = self._wait
        # Counts first, mailbox second: a frame the counts include has
        # been put (the reader puts, then counts), so "counted and not
        # in the box" can only mean it is not the awaited message.
        counts = self._wire.counts()
        if not box.has(edge[2], edge[3]):
            self._channel.call("wait", edge, counts, stalled)
            self._registered = True

    def begin_wait(self, world_rank, target_world, source_comm_rank, tag,
                   comm_id, mailbox) -> None:
        from ...sanitize.diagnostics import capture_call_site

        edge = (world_rank, target_world, source_comm_rank, tag, comm_id,
                capture_call_site())
        self._wait = (edge, mailbox)
        self._notice(stalled=False)

    def on_stall(self, world_rank) -> None:
        self._notice(stalled=True)

    def end_wait(self, world_rank) -> None:
        if self._registered:
            self._registered = False
            self._channel.call("end_wait", world_rank)


class WorkerContext:
    """Rank-local stand-in for :class:`SpmdContext` inside a worker.

    Holds what belongs to the rank — its mailboxes, fed by the inbound
    peer links, and its node-local checkpoint store — and a copy of the
    world table the master keeps current (see the module docstring).
    What is world state (rendezvous, abort and revoke requests) is an
    RPC to the master; per-rank observability writes go to local copies
    shipped home as deltas at finalize.
    """

    def __init__(self, cfg: WorkerConfig, rank: int, channel, wire) -> None:
        self.rank = rank
        self.world_size = cfg.world_size
        self.recv_timeout = cfg.recv_timeout
        self.resilience = cfg.resilience
        self.faults = cfg.faults
        self.observers = cfg.observers
        # Rank programs label their traffic through
        # ``comm.context.comm_trace.set_context(...)``.
        self.comm_trace = cfg.observers.get("comm_trace")
        self.sanitizer = (
            WorkerSanitizer(channel, wire) if cfg.has_sanitizer else None
        )
        self.abort_event = threading.Event()
        self.abort_reason: str | None = None
        self.revoked_below = 0
        self.revoke_reason: str | None = None
        # Observed threshold for entry-point checks: ``revoked_below``
        # is pushed asynchronously by the master, so gating ops on it
        # directly would interrupt this worker at a timing-dependent
        # op.  ``revoked_seen`` advances only at deterministic points —
        # a blocking wait that raised, or our own revoke().
        self.revoked_seen = 0
        self._channel = channel
        self._wire = wire
        self._boxes: dict[int, _Mailbox] = {}
        self._box_lock = threading.Lock()
        self._node_store: dict = {}
        # The world table, replaced whole by each push; the condition
        # wakes senders waiting for an address or a verdict on a peer.
        self._table = {
            "status": ["running"] * cfg.world_size,
            "recovering": (),
            "sent": {},
            "book": {},
        }
        self._table_cond = threading.Condition()
        # When each departed partner was first found short of frames.
        self._drain_started: dict[int, float] = {}
        self._lingering = False  # program over, collecting late frames

    # -- state pushed by the master -------------------------------------
    def apply_oob(self, msg: tuple) -> None:
        """Apply one master push (called on the ctl reader thread)."""
        with self._table_cond:
            if msg[1] == "abort":
                self.abort_reason = msg[2]
                self.abort_event.set()
            elif msg[1] == "world":
                self._table = table = msg[2]
                if table["revoked_below"] > self.revoked_below:
                    self.revoked_below = table["revoked_below"]
                    self.revoke_reason = table["revoke_reason"]
            self._table_cond.notify_all()
        self.wake_all_mailboxes()

    def wait_table(self, timeout: float) -> None:
        """Sleep up to ``timeout`` seconds, less if a push arrives."""
        with self._table_cond:
            self._table_cond.wait(timeout)

    def peer_address(self, dest: int) -> tuple | None:
        """The address of ``dest``'s listener.

        Blocks until the master has handed the entry out (it does once
        every worker has said hello); ``None`` when there will be none —
        ``dest`` was declared lost before it ever said hello, or the
        world was aborted.
        """
        deadline = time.monotonic() + self.recv_timeout
        with self._table_cond:
            while True:
                table = self._table
                entry = table["book"].get(dest)
                if entry is not None:
                    return entry
                if (table["status"][dest] != "running"
                        or self.abort_event.is_set()):
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicatorError(
                        f"rank {self.rank} never learned rank {dest}'s "
                        f"address from the master"
                    )
                self._table_cond.wait(remaining)

    def true_status(self, world_rank: int) -> str:
        """The master's word on ``world_rank``, drained or not."""
        return self._table["status"][world_rank]

    def _drained(self, table: dict, partner: int) -> bool:
        """Whether every frame ``partner`` sent this rank has arrived."""
        sent = table["sent"].get(partner)
        got, at_eof = self._wire.received(partner)
        if sent is None:
            # Died without a report: its link's EOF is the last word.
            done = at_eof
        else:
            done = got >= sent.get(self.rank, 0)
        if done:
            self._drain_started.pop(partner, None)
            return True
        started = self._drain_started.get(partner)
        if started is None:
            started = self._drain_started[partner] = time.monotonic()
            # The blocked receive recounts when a frame or a push wakes
            # it; if neither ever comes, this does.
            alarm = threading.Timer(DRAIN_TIMEOUT + 0.1,
                                    self.wake_all_mailboxes)
            alarm.daemon = True
            alarm.start()
        return time.monotonic() - started > DRAIN_TIMEOUT

    def rank_status(self, world_rank: int) -> str:
        """``world_rank``'s status *as this receiver may act on it*:
        ``"running"`` until the frames it sent have all arrived."""
        table = self._table
        status = table["status"][world_rank]
        if status != "running" and not self._drained(table, world_rank):
            return "running"
        return status

    def is_recovering(self, world_rank: int) -> bool:
        table = self._table
        return (world_rank in table["recovering"]
                and self._drained(table, world_rank))

    def check_alive(self) -> None:
        if self.abort_event.is_set():
            raise WorldAbortedError(
                f"SPMD world aborted: {self.abort_reason or 'unknown reason'}"
            )

    def check_revoked(self, comm_id: int) -> None:
        if comm_id < self.revoked_below:
            raise CommRevokedError(
                f"communicator {comm_id} was revoked: "
                f"{self.revoke_reason or 'rank failure'}"
            )

    def revocation_seen(self, world_rank: int) -> int:
        return self.revoked_seen

    def note_revocation_seen(self, world_rank: int) -> None:
        if self.revoked_below > self.revoked_seen:
            self.revoked_seen = self.revoked_below

    @property
    def fault_poll_interval(self) -> float | None:
        if self.resilience or self.faults is not None:
            return POLL_INTERVAL
        return None

    # -- message paths ---------------------------------------------------
    def mailbox(self, comm_id: int, world_rank: int | None = None) -> _Mailbox:
        """This rank's (lazily created) mailbox in one communicator."""
        with self._box_lock:
            box = self._boxes.get(comm_id)
            if box is None:
                box = self._boxes[comm_id] = _Mailbox(self.abort_event)
            return box

    def wake_all_mailboxes(self) -> None:
        with self._box_lock:
            boxes = list(self._boxes.values())
        for box in boxes:
            box.wake_all()

    def accept_put(self, link, header: tuple, arrays: list) -> None:
        """File one inbound ``put`` frame (called on a link's reader)."""
        _, comm_id, source, tag, skeleton = header
        env = decode_envelope(join_arrays(skeleton, arrays))
        self.mailbox(comm_id).put(source, tag, env)
        # Put first, count second (see _drained / WorkerSanitizer._notice).
        link.received += 1
        table = self._table
        if (table["status"][link.rank] != "running"
                or link.rank in table["recovering"]):
            # A receive held back by the drain rule may be blocked on
            # another communicator's mailbox: wake them all to recount.
            self.wake_all_mailboxes()
        if self._lingering:
            with self._table_cond:
                self._table_cond.notify_all()

    def pending_rows(self, limit: int | None = None) -> list:
        """Wire summary of this rank's undelivered messages."""
        with self._box_lock:
            boxes = sorted(self._boxes.items())
        rows = []
        for comm_id, box in boxes:
            for (source, tag), envs in sorted(box.pending_envelopes().items()):
                for env in envs:
                    rows.append((comm_id, source, tag, env.nbytes, env.moved,
                                 encode_origin(env.origin)))
                    if limit is not None and len(rows) >= limit:
                        return rows
        return rows

    def await_frames(self, expected: dict) -> None:
        """Wait (bounded) until ``expected[source]`` frames arrived from
        each source: what the peers reported sending, at world's end."""
        deadline = time.monotonic() + DRAIN_TIMEOUT
        with self._table_cond:
            self._lingering = True
            while not all(self._wire.received(src)[0] >= count
                          for src, count in expected.items()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._table_cond.wait(remaining)

    def deliver(self, comm_id: int, dest_world: int, source: int, tag: int,
                envelope: Envelope):
        """Put a self-send in the local mailbox, or ship the envelope to
        its peer; returns the error that lost it, or None."""
        if dest_world == self.rank:
            self.mailbox(comm_id).put(source, tag, envelope)
            return None
        return self._wire.send_put(dest_world, comm_id, source, tag, envelope)

    def node_store(self, holder: int) -> dict:
        """This rank's node-local checkpoint slot, in its own memory
        (``holder`` is always this rank)."""
        return self._node_store

    # -- world-authoritative operations (RPC) ----------------------------
    def split_rendezvous(self, parent_comm_id, seqno, size, rank, value,
                        members, world_rank) -> list:
        return self._channel.call(
            "split", parent_comm_id, seqno, size, rank, tuple(value),
            list(members), world_rank,
        )

    def shrink_rendezvous(self, parent_comm_id, seqno, rank, world_rank,
                          members) -> tuple:
        new_id, ordered_old = self._channel.call(
            "shrink", parent_comm_id, seqno, rank, world_rank, list(members)
        )
        return new_id, list(ordered_old)

    def abort(self, reason: str) -> None:
        self.abort_reason = reason
        self.abort_event.set()
        self._channel.call("abort", reason)

    def revoke_current(self, reason: str,
                       world_rank: int | None = None) -> None:
        # The frame counts ride along: peers may stop waiting for this
        # rank once they hold everything it sent before revoking.
        threshold, why = self._channel.call(
            "revoke_current", reason, world_rank, self._wire.counts()[0])
        if threshold > self.revoked_below:
            self.revoked_below = threshold
            self.revoke_reason = why
        # The revoking worker has observed its own revocation.
        self.revoked_seen = self.revoked_below


def delta_shards(cfg: WorkerConfig, ctx: WorkerContext, rank: int,
                 cursors: dict) -> dict:
    """Each observer's shard since ``cursors[name]``; advances them.

    Safe to call from the heartbeat thread: an observer leaves out of a
    shard what only the rank's own thread can cut (see the observer
    protocol in :mod:`repro.obs._hook`).
    When someone will read it (a sanitizer or a recorder is attached),
    a bounded summary of the rank's pending inbox rides along, so the
    master still knows roughly what a rank that dies without a report
    was holding.
    """
    delta: dict = {}
    for name, observer in cfg.observers.items():
        shard, cursors[name] = observer.shard(rank, cursors[name])
        if shard:
            delta[name] = shard
    if "recorder" in cfg.observers or cfg.has_sanitizer:
        delta["inbox"] = ctx.pending_rows(limit=_HEARTBEAT_INBOX_ROWS)
    return delta


def collect_shards(cfg: WorkerConfig, ctx: WorkerContext, rank: int,
                   cursors: dict) -> dict:
    """Post-fork deltas to ship with the lifecycle RPC: the observers'
    closing shards plus the participants' rows."""
    shards = delta_shards(cfg, ctx, rank, cursors)
    if cfg.faults is not None:
        events = cfg.faults.trace[cursors["fault_events"]:]
        shards["faults"] = (
            [e.as_tuple() for e in events], cfg.faults.ops_per_rank()
        )
    if ctx.sanitizer is not None:
        findings = ctx.sanitizer.local_findings()
        if findings:
            shards["sanitizer"] = findings
    return shards


class Heartbeat:
    """The worker's one periodic frame: liveness, and the recorder's stream.

    A daemon thread sends ``("hb", rank, ts, delta)`` up the data link
    every ``interval`` seconds, from the worker's start to its last
    ``finally``.  The master stamps the link on every frame (silence
    past the liveness deadline is a death) and folds ``delta`` into the
    caller's observers.  ``delta`` is ``{}`` unless a
    :class:`~repro.obs.FlightRecorder` is attached, so an unobserved
    world never cuts a shard.

    Memory model.  The thread and the rank's main thread share
    ``cursors``.  The thread cuts and sends each delta holding
    ``_lock``, and reads ``_streaming`` under it; :meth:`close_stream`
    takes the same lock to clear the flag, and :func:`run_worker` calls
    it before it cuts the closing shard.  The lock orders every cut: a
    delta the thread cut (and sent) happens before the flag is cleared,
    and once it is cleared the thread cuts nothing.  So no delta is cut
    after the closing one, no cursor is advanced twice, and nothing is
    counted twice.  (The lock orders the cuts, not their arrival: the
    closing shard travels on the ctl link, so the recorder's part of it
    restarts at the fork — see :func:`run_worker`.)  The empty frames go
    on through the linger phase, until :meth:`stop`.
    """

    def __init__(self, cfg: WorkerConfig, ctx: WorkerContext, wire,
                 rank: int, cursors: dict, interval: float) -> None:
        self._cfg = cfg
        self._ctx = ctx
        self._wire = wire
        self._rank = rank
        self._cursors = cursors
        self._interval = interval
        self._lock = threading.Lock()
        self._streaming = "recorder" in cfg.observers
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"spmd-heartbeat-{rank}"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            with self._lock:
                delta = {}
                if self._streaming:
                    try:
                        delta = delta_shards(self._cfg, self._ctx,
                                             self._rank, self._cursors)
                    except Exception:  # pragma: no cover - best-effort
                        pass
                self._wire.notify_master(
                    ("hb", self._rank, time.time(), delta))

    def close_stream(self) -> None:
        """Cut no more deltas: the caller is about to cut the closing
        shard from the same cursors."""
        with self._lock:
            self._streaming = False

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _imported_since(count: int) -> list:
    """The ``repro`` modules this process imported after ``sys.modules``
    held ``count`` entries.

    Read off the end of ``sys.modules`` (insertion-ordered), so the
    entries inherited through the fork are never touched: taking a
    reference to each of them writes its refcount, which copies the
    pages under every module name out of the parent (≈1.5 ms a worker
    on a 2-core x86 VM).  A module deleted since undercounts the window,
    and an import racing the read gives up; either way the report is a
    hint.
    """
    try:
        names = list(itertools.islice(reversed(sys.modules),
                                      max(len(sys.modules) - count, 0)))
    except RuntimeError:  # another thread imported meanwhile
        return []
    return sorted(name for name in names if name.startswith("repro."))


def run_worker(cfg: WorkerConfig, rank: int, fn, args, kwargs,
               channel, wire, heartbeat_interval: float) -> None:
    """The worker main loop, from first baseline to the closing report.

    Wire-agnostic: the transport's worker entry point builds the
    channel and the peer wire over the sockets it owns, does its fd
    hygiene, then hands off here.  The :class:`Heartbeat` runs from
    here to the end, every ``heartbeat_interval`` seconds.
    """
    from ..communicator import Communicator

    forked_with = len(sys.modules)
    # Prime every cursor: the forked observers carry the caller's
    # pre-fork state, and only what this rank adds goes home.
    cursors = {name: observer.shard(rank, None)[1]
               for name, observer in cfg.observers.items()}
    cursors["fault_events"] = (len(cfg.faults.trace)
                               if cfg.faults is not None else 0)
    recorder_at_fork = cursors.get("recorder")

    ctx = WorkerContext(cfg, rank, channel, wire)
    heartbeat = Heartbeat(cfg, ctx, wire, rank, cursors, heartbeat_interval)
    try:
        wire.start(ctx)
        channel.start(ctx)

        comm = None
        outcome = {"kind": "rank_error", "value": None,
                   "exc": CommunicatorError(f"rank {rank} worker never ran")}
        try:
            comm = Communicator(ctx, WORLD_COMM_ID,
                                list(range(cfg.world_size)), rank)

            def on_value(value) -> None:
                outcome.update(kind="finalize", value=value, exc=None)

            def on_killed(exc) -> None:
                outcome.update(kind="rank_killed", exc=exc)

            def on_error(exc) -> None:
                outcome.update(kind="rank_error", exc=exc)

            run_rank_program(ctx, comm, fn, args, kwargs, rank,
                             on_value=on_value, on_killed=on_killed,
                             on_error=on_error)
        except BaseException as exc:  # noqa: BLE001 - report setup failures
            outcome.update(kind="rank_error", exc=exc)

        # No heartbeat delta is cut after this: the closing shard takes
        # the rest from the same cursors (see Heartbeat, "memory model").
        heartbeat.close_stream()
        if recorder_at_fork is not None:
            # A delta may still be on the data link when this report
            # reaches the master over the ctl link, and the master
            # reads the two on different threads.  The recorder keeps
            # one copy of each seq and drops any at or below its newest,
            # so its closing shard restarts at the fork: whichever of
            # the two is merged last adds nothing and loses nothing.
            cursors["recorder"] = recorder_at_fork
        try:
            shards = collect_shards(cfg, ctx, rank, cursors)
        except Exception:  # pragma: no cover - never lose the lifecycle msg
            shards = {}
        payload = (outcome["value"] if outcome["kind"] == "finalize"
                   else encode_exception(outcome["exc"]))
        # The lifecycle message carries the wire's account of itself: how
        # many frames went to each peer (what their drain rule counts up
        # to) and which were lost to a failed path (so the master can name
        # the send path as the cause instead of letting partners see a
        # clean finalize).  It also names the package modules this rank had
        # to import itself, for the master to load before the next fork.
        report = wire.report()
        report["imported"] = _imported_since(forked_with)
        try:
            channel.call(outcome["kind"], payload, shards, report)
        except (pickle.PicklingError, TypeError, ValueError,
                AttributeError) as exc:
            # The return value would not cross the process boundary (e.g.
            # it holds live runtime handles).  Report a diagnostic instead
            # of dying silently, which would surface as a spurious
            # "worker process died unexpectedly".
            err = CommunicatorError(
                f"rank {rank} return value could not cross the process "
                f"boundary ({type(exc).__name__}: {exc}); return plain "
                f"arrays/containers from the rank program, or objects that "
                f"detach cleanly on pickle"
            )
            try:
                channel.call("rank_error", encode_exception(err), shards,
                             report)
            except BaseException:  # noqa: BLE001 - master gone
                return
        except BaseException:  # noqa: BLE001 - master gone: nobody to tell
            return
        # The rank is done but its process is not: peers may still be
        # sending to it, and what lands in its mailboxes unreceived is what
        # the leak report and the postmortem's in-flight section list.  So
        # the worker keeps its links open until the master closes the
        # world, takes in the frames its peers reported sending, and hands
        # over the summary of what nobody received.
        expected = channel.wait_bye()
        if expected is not None:
            ctx.await_frames(expected)
            try:
                channel.call("inbox", ctx.pending_rows())
            except BaseException:  # noqa: BLE001 - master gone
                pass
    finally:
        heartbeat.stop()


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _OnTheWire:
    """What the master's wait-for graph asks of a waiter's mailbox.

    The mailbox itself is in the waiter's process; the waiter only
    registers a wait after finding it empty of the awaited message, so
    the one thing left to know is whether a frame from the awaited rank
    is still on the link — which the two ranks' frame counts answer.
    """

    __slots__ = ("_server", "_waiter", "_target")

    def __init__(self, server, waiter: int, target: int) -> None:
        self._server = server
        self._waiter = waiter
        self._target = target

    def has(self, source: int, tag: int) -> bool:
        return self._server.frames_on_the_wire(self._target, self._waiter)


class WorldServerMixin:
    """Master-side world service shared by the process transports.

    The deriving transport owns the wire (service threads, reply path,
    pushes) and provides ``self._values`` / ``self._errors`` result
    slots and per-rank link objects with ``rank``.  :meth:`reset_world`
    must run before each world.
    """

    def reset_world(self, context) -> None:
        nprocs = context.world_size
        self._values = [None] * nprocs
        self._errors = [None] * nprocs
        # Frame counts as last reported: rank -> {peer: frames}.
        # ``_sent[r] is None`` marks a rank that died without reporting.
        self._sent: dict = {r: {} for r in range(nprocs)}
        self._received: dict = {r: {} for r in range(nprocs)}
        self._book: dict = {}
        self._push_lock = threading.Lock()
        # Package modules the workers imported beyond what they forked
        # with, from their lifecycle reports (see warm_parent).
        self._imported: set = set()

    def warm_parent(self) -> None:
        """Import here the ``repro`` modules this world's workers had to.

        The parallel drivers and the runtime pieces they use load on
        first use, and a rank program's first use is in a worker, so
        every worker of every world would import (and, without
        byte-code, compile) them again; imported once in the master,
        they are inherited by the next world's workers at fork.  Run on
        the caller's thread after the workers are reaped.  Best-effort:
        only names under ``repro.`` are imported, never user code, and a
        module that fails to import is left out.
        """
        for name in sorted(self._imported):
            if name.startswith("repro."):
                try:
                    importlib.import_module(name)
                except Exception:  # noqa: BLE001 - a warm-up, not a step
                    pass

    # -- the world table -------------------------------------------------
    def world_table(self, context) -> dict:
        """Snapshot of what a worker's blocked receive consults."""
        nprocs = context.world_size
        return {
            "status": [context.rank_status(r) for r in range(nprocs)],
            "recovering": tuple(context.recovering_ranks()),
            "revoked_below": context.revoked_below,
            "revoke_reason": context.revoke_reason,
            "sent": dict(self._sent),
            "book": dict(self._book),
        }

    def frames_on_the_wire(self, source: int, dest: int) -> bool:
        """Whether ``source`` reported more frames sent to ``dest`` than
        ``dest`` reported received."""
        sent = (self._sent.get(source) or {}).get(dest, 0)
        return sent > self._received[dest].get(source, 0)

    # -- RPC dispatch ----------------------------------------------------
    def _dispatch(self, context, link, method: str, args: tuple):
        if method == "split":
            parent_comm_id, seqno, size, rank, value, members, world_rank = args
            return context.split_rendezvous(
                parent_comm_id, seqno, size, rank, tuple(value),
                list(members), world_rank,
            )
        if method == "shrink":
            parent_comm_id, seqno, rank, world_rank, members = args
            return context.shrink_rendezvous(
                parent_comm_id, seqno, rank, world_rank, list(members)
            )
        if method == "check_collective":
            comm_id, seq, world_rank, op, signature, comm_size, site = args
            context.sanitizer.check_collective(
                comm_id, seq, world_rank, op, tuple(signature), comm_size,
                site=site,
            )
            return None
        if method == "wait":
            (me, target, source, tag, comm_id, site), counts, stalled = args
            self._sent[me], self._received[me] = counts
            # Registering again on a stall tick re-runs the cycle check
            # with the fresh counts.
            context.sanitizer.begin_wait(
                me, target, source, tag, comm_id,
                _OnTheWire(self, me, target), site=site,
            )
            if stalled:
                context.sanitizer.on_stall(me)
            return None
        if method == "end_wait":
            context.sanitizer.end_wait(args[0])
            return None
        if method == "abort":
            context.abort(args[0])
            return None
        if method == "revoke_current":
            reason, world_rank, sent = args
            if world_rank is not None:
                self._sent[world_rank] = sent
            context.revoke_current(reason, world_rank)
            return (context.revoked_below, context.revoke_reason)
        if method in ("finalize", "rank_killed", "rank_error"):
            payload, shards, report = args
            self._finish_rank(context, link, method, payload, shards, report)
            return None
        if method == "inbox":
            self._note_inbox(context, link.rank, args[0])
            return None
        raise CommunicatorError(f"unknown transport RPC {method!r}")

    def _finish_rank(self, context, link, method: str, payload,
                     shards: dict, report: dict) -> None:
        rank = link.rank
        # Recorded before the status changes: the push that announces
        # the rank's departure carries the counts its peers drain to.
        self._sent[rank] = report["sent"]
        self._imported.update(report["imported"])
        self._merge_shards(context, rank, shards)
        if method == "finalize":
            # Frames lost toward a rank that has itself failed were
            # undeliverable anyway; toward a live one they are why a
            # receiver is about to block for good.
            lost = {dest: entry for dest, entry in report["lost"].items()
                    if context.rank_status(dest) != "failed"}
            if lost:
                # A clean finalize would make the blocked receivers'
                # diagnosis ("rank already finalized with an empty
                # queue") a lie.  Fail the rank with the send path as
                # the named cause instead.
                dest, (count, why) = sorted(lost.items())[0]
                self._errors[rank] = RankFailedError(
                    f"rank {rank} finished its program but its send "
                    f"path failed before {count} staged "
                    f"{'delivery' if count == 1 else 'deliveries'} "
                    f"reached rank {dest} ({why})"
                )
                context.mark_failed(rank)
                return
            self._values[rank] = payload
            context.mark_finalized(rank)
        elif method == "rank_killed":
            self._errors[rank] = decode_exception(payload)
            context.mark_failed(rank)
        else:
            exc = decode_exception(payload)
            self._errors[rank] = exc
            context.mark_failed(rank)
            context.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")

    def expected_frames(self, rank: int) -> dict:
        """Frames each peer reported sending to ``rank``."""
        return {source: sent[rank] for source, sent in self._sent.items()
                if sent and rank in sent}

    @staticmethod
    def _note_inbox(context, rank: int, rows: list) -> None:
        """Keep a rank's pending-inbox summary where the leak report and
        the postmortem read it (``SpmdContext.pending_messages``)."""
        context.inbox_reports[rank] = [
            {"comm_id": comm_id, "dest": rank, "source": source, "tag": tag,
             "nbytes": nbytes, "moved": moved, "origin": decode_origin(origin)}
            for comm_id, source, tag, nbytes, moved, origin in rows
        ]

    def _ingest_heartbeat(self, context, rank: int, delta: dict) -> None:
        """Fold one heartbeat's streamed shards into the caller's
        observers."""
        try:
            self._merge_streamed(context, rank, delta)
        except Exception:  # pragma: no cover - a stream must not kill
            pass  # the data thread

    def _merge_streamed(self, context, rank: int, shards: dict) -> None:
        """Merge the streaming shard slice (observers + inbox)."""
        for name, observer in context.observers.items():
            if shards.get(name):
                observer.absorb(rank, shards[name])
        if "inbox" in shards:
            self._note_inbox(context, rank, shards["inbox"])

    def _merge_shards(self, context, rank: int, shards: dict) -> None:
        self._merge_streamed(context, rank, shards)
        injector = context.faults
        if injector is not None and shards.get("faults"):
            events, ops = shards["faults"]
            injector.absorb(events, ops)
        sanitizer = context.sanitizer
        if sanitizer is not None and shards.get("sanitizer"):
            sanitizer.absorb_findings(shards["sanitizer"])
