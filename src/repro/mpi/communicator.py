"""Simulated MPI communicator with a size-adaptive collective engine.

Implements the subset of MPI used by parallel ST-HOSVD — blocking
point-to-point (send/recv/sendrecv) plus the collectives the algorithms
need (barrier, bcast, reduce, allreduce, gather, allgather, scatter,
alltoall, reduce_scatter, split) — on top of the mailbox layer in
:mod:`repro.mpi.context`.  Ranks run as threads (NumPy releases the GIL,
so local kernels genuinely overlap) launched by
:func:`repro.mpi.launcher.run_spmd`.

Semantics mirror MPI where it matters to the algorithms:

* per-(source, tag, communicator) FIFO message ordering;
* collectives must be entered by every rank of the communicator in the
  same order (enforced cheaply via an internal sequence number used as
  the tag space);
* ``split`` creates disjoint sub-communicators by color, ranked by key.

**One schedule per collective.**  Each collective runs the schedule the
paper's cost analysis (Sec. 3.5) assumes for its role: the binomial
tree for bcast and reduce, the ring for allgather, the pairwise
exchange for alltoall, and the ring shift-accumulate for reduce_scatter
(the alltoall + fold for generic payloads, which cannot be sliced).
allreduce alone dispatches by size — recursive doubling below the
:class:`~repro.mpi.tuning.CollectiveTuning` crossover, the
bandwidth-optimal ring above it, reduce+broadcast for generic payloads —
and only allreduce takes ``algorithm=`` to force one.  All algorithms
combine in deterministic order, so replicated results stay bitwise
replicated.

**Zero-copy sends.**  By default array payloads are copied on send, so a
sender may immediately reuse its buffer — the blocking-send contract the
algorithms assume.  Two mechanisms elide the copy in this
shared-address-space runtime: ``send(obj, dest, copy=False)`` *moves*
the payload (ownership transfers; ndarrays in the payload are frozen
read-only so sender-side reuse raises instead of corrupting the
receiver), and arrays the caller has already marked read-only
(``arr.flags.writeable = False``) are moved automatically.  Collectives
move their internal temporaries (ring carries, scatter pieces, partial
sums), so the hot paths perform no hidden snapshots; the per-rank
"bytes copied vs. moved" split is recorded by
:class:`~repro.mpi.tracing.CommTrace`.

**Observability.**  What a message passes on its way is split in two.
*Participants* change what happens to it and are explicit calls, in
order: the abort check, the revocation gate, fault injection and the
retry protocol, and the sanitizer (which returns the envelope's
``origin`` and blocks on collective matching).  *Observers* only read
— ``CommTrace``, ``Tracer``, ``FlightRecorder``, whichever
``run_spmd`` was given — and see the path through one door: exactly one :func:`~repro.obs._hook.emit`
per send, receive, injected drop, retransmission, checksum discard and
collective dispatch, behind one ``if observers:`` test.  Every public
operation also opens a ``comm.*`` span under the paper's ``PHASE_COMM``
category (:func:`~repro.obs._hook.trace_span`: one thread-local read
when nothing is bound), tagged with the dispatched algorithm.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Callable, Sequence

import numpy as np

from ..dist.grid import block_range
from ..errors import CommRevokedError, CommunicatorError, RankFailedError
from ..instrument import PHASE_COMM
from ..obs._hook import emit, trace_span
from ..util.arraycodec import map_arrays, split_arrays
from .context import Envelope, SpmdContext
from .tuning import CollectiveTuning

__all__ = ["Communicator"]

# Internal tag space for collectives: user tags must be >= 0.
_COLLECTIVE_TAG_BASE = -1

# The allreduce crossover every communicator dispatches by.
_TUNING = CollectiveTuning()

# Retransmissions of one message before a resilient sender gives up.
MAX_RETRIES = 16

# "This collective announces no dispatch" (None is a legal payload).
_NO_PAYLOAD = object()


def _payload_nbytes(obj: Any) -> int:
    """Modeled wire size of a payload in bytes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(x) for x in obj) + 16
    if isinstance(obj, dict):
        return sum(_payload_nbytes(v) for v in obj.values()) + 16
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            sum(
                _payload_nbytes(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            )
            + 16
        )
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if obj is None:
        return 0
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 8
    return 64  # nominal envelope for small pickled objects


_copy = np.ndarray.copy


def _copy_payload(obj: Any) -> Any:
    """Snapshot a payload so sender-side mutation cannot race the receiver."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return map_arrays(obj, _copy)


def _freeze(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable:
        a.flags.writeable = False
    return a


def _freeze_payload(obj: Any) -> Any:
    """Freeze every ndarray in a moved payload (returns the payload).

    The move contract's safety net: after ``send(..., copy=False)`` the
    sender's arrays become read-only, so an accidental reuse raises
    ``ValueError`` instead of silently corrupting the receiver.
    """
    if isinstance(obj, np.ndarray):
        _freeze(obj)
    else:
        map_arrays(obj, _freeze)
    return obj


def _is_readonly_array(obj: Any) -> bool:
    """True for ndarrays the caller marked read-only (copy elidable)."""
    return isinstance(obj, np.ndarray) and not obj.flags.writeable


def _array_crc(a: np.ndarray, acc: int) -> int:
    acc = zlib.crc32(np.ascontiguousarray(a).tobytes(), acc)
    return zlib.crc32(repr(a.shape).encode(), acc)


def _payload_checksum(obj: Any) -> int:
    """CRC32 digest of a payload (resilience checksums).

    Every ndarray's bytes and shape — the arrays fault injection can
    corrupt, found by the one payload walk — then the repr of the rest
    (the skeleton, object arrays included: their bytes are pointers,
    which differ between processes), so mismatched scalars are caught
    too; raw byte payloads are digested whole.
    """
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        return _array_crc(obj, 0)
    if isinstance(obj, (bytes, bytearray)):
        return zlib.crc32(bytes(obj))
    skeleton, arrays = split_arrays(obj)
    acc = 0
    for a in arrays:
        acc = _array_crc(a, acc)
    return zlib.crc32(repr(skeleton).encode(), acc)


def _default_op(a: Any, b: Any) -> Any:
    """Elementwise addition, the default reduction operator."""
    return a + b


def _op_name(op: Callable | None) -> str:
    """Stable cross-rank identifier for a reduction operator."""
    if op is None or op is _default_op:
        return "sum"
    return getattr(op, "__qualname__", type(op).__name__)


def _describe_payload(obj: Any) -> tuple:
    """Hashable cross-rank summary of a payload for signature checks.

    Used only for collectives whose semantics require every rank to
    contribute congruent data (reductions): ndarrays compare by
    shape/dtype, scalars and generic objects by type name.
    """
    if isinstance(obj, np.ndarray):
        return ("ndarray", tuple(obj.shape), obj.dtype.name)
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return ("scalar", type(obj).__name__)
    if isinstance(obj, (list, tuple)):
        return ("seq", len(obj))
    return ("obj", type(obj).__name__)


class Communicator:
    """A group of simulated ranks with MPI-style operations.

    Do not construct directly — use :func:`repro.mpi.run_spmd`, which
    hands each SPMD thread its world communicator, or :meth:`split`.
    """

    def __init__(
        self,
        context: SpmdContext,
        comm_id: int,
        members: Sequence[int],
        rank: int,
    ) -> None:
        self._context = context
        self._comm_id = comm_id
        self._members = tuple(members)  # comm rank -> world rank
        self._rank = rank
        self._coll_seq = 0
        # Collective-verification slot counter (independent of the tag
        # space: nested collectives like the tree allreduce consume
        # check slots without consuming tags).
        self._san_seq = 0
        # Resilience state (unused without run_spmd(resilience=...)):
        # per-(partner, tag) send sequence numbers and the receiver's
        # next expected sequence, for duplicate discard and
        # retransmission matching.  Shrink rendezvous counter.
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}
        self._shrink_seq = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._members)

    @property
    def world_rank(self) -> int:
        """Underlying world rank (stable across sub-communicators)."""
        return self._members[self._rank]

    @property
    def comm_id(self) -> int:
        """This communicator's id — the epoch key for fault tolerance."""
        return self._comm_id

    @property
    def context(self) -> SpmdContext:
        return self._context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Communicator(id={self._comm_id}, rank={self._rank}/{self.size})"

    def _check_rank(self, r: int, what: str) -> None:
        if not 0 <= r < self.size:
            raise CommunicatorError(f"{what} {r} out of range for size-{self.size} communicator")

    # ------------------------------------------------------------------
    # Spans, and the one preamble of a collective
    # ------------------------------------------------------------------
    def _comm_span(self, op: str, **attrs):
        """A ``comm.<op>`` span (the shared no-op when unobserved)."""
        return trace_span(f"comm.{op}", phase=PHASE_COMM, **attrs)

    def _collective(self, op: str, signature: Callable[[], tuple] = tuple,
                    payload: Any = _NO_PAYLOAD, **attrs):
        """Preamble of a public collective; returns its span to enter.

        Under a sanitizer, verifies this call against the other ranks'
        (``op`` and ``signature()`` must agree — a callable, so that
        describing the payload costs nothing when nobody checks; raises
        :class:`~repro.errors.CollectiveMismatchError` and aborts the
        world when ranks diverge in order or signature).  With
        ``payload=``, emits the collective's ``dispatch`` event — the
        ``algorithm`` chosen and the payload bytes it was chosen for.
        """
        san = self._context.sanitizer
        if san is not None:
            self._san_seq += 1
            san.check_collective(
                self._comm_id, self._san_seq, self.world_rank,
                op, signature(), self.size,
            )
        if payload is not _NO_PAYLOAD:
            self._dispatched(op, attrs["algorithm"], payload)
        return self._comm_span(op, **attrs)

    def _dispatched(self, op: str, algorithm: str, payload: Any) -> None:
        if self._context.observers:
            emit("dispatch", f"{op}:{algorithm}",
                 nbytes=_payload_nbytes(payload))

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, *, copy: bool = True) -> None:
        """Blocking-semantics send (buffered: returns once payload is staged).

        With ``copy=True`` (default) the payload is snapshotted, so the
        sender may immediately reuse its buffer.  With ``copy=False``
        the payload is *moved*: ownership transfers to the receiver and
        every ndarray in the payload is frozen read-only on the sender's
        side.  Arrays already marked read-only are moved automatically
        even under ``copy=True`` (copy elision).
        """
        self._check_rank(dest, "destination")
        if tag < 0:
            raise CommunicatorError("user tags must be non-negative")
        with self._comm_span("send", dest=dest):
            # A frame the link lost is not raised here: the rank's
            # lifecycle report names it, and the master fails the rank.
            self._send_internal(obj, dest, tag, copy=copy)

    def _send_internal(self, obj: Any, dest: int, tag: int, *,
                       copy: bool = True):
        """The error that lost the frame, or None."""
        ctx = self._context
        # Fault-tolerance hooks, ordered cheapest-first: the clean path
        # (no faults, no resilience, nothing revoked) costs two extra
        # attribute reads and an integer compare.  The revocation gate
        # compares against the threshold this rank has *observed* — at
        # a blocking wait or at its own revoke() — never the live global
        # flag, so a survivor is never yanked at an arbitrary op by an
        # asynchronously landing revocation and fault-injection op
        # counters / rng draw streams stay replayable run to run.
        if self._comm_id < ctx.revocation_seen(self.world_rank):
            ctx.check_revoked(self._comm_id)
        if ctx.faults is not None or ctx.resilience:
            return self._send_resilient(obj, dest, tag, copy=copy)
        return self._deliver(obj, dest, tag, copy=copy)

    def _send_resilient(self, obj: Any, dest: int, tag: int, *, copy: bool):
        """Send through the (possibly lossy) injected link.

        The mailbox layer itself never loses messages, so the lossy link
        is *simulated at the sender*: a dropped attempt just isn't
        delivered, a corrupted attempt delivers a corrupted copy, and
        the stop-and-wait ack/retry protocol a real lossy transport
        needs collapses into a synchronous retry loop of at most
        :data:`MAX_RETRIES` retransmissions.  Retransmissions reuse the same
        sequence number, which is how receivers discard duplicates and
        corrupted precursors.  Returns the error that lost the last
        delivery, or None (an injected drop is silent).
        """
        ctx = self._context
        faults = ctx.faults
        resilient = ctx.resilience
        me_world = self.world_rank
        if faults is not None:
            faults.on_op(me_world)
        nbytes = _payload_nbytes(obj)
        seq = checksum = None
        if resilient:
            key = (dest, tag)
            seq = self._send_seq.get(key, 0)
            self._send_seq[key] = seq + 1
            checksum = _payload_checksum(obj)
        observers = ctx.observers
        attempts = 0
        while True:
            rule = None
            if faults is not None:
                rule = faults.message_outcome(
                    me_world, self._members[dest], tag, nbytes
                )
            if rule is None:
                return self._deliver(obj, dest, tag, copy=copy, seq=seq,
                                     checksum=checksum)
            if rule.kind == "duplicate":
                # Deliver the duplicate first from a snapshot so the
                # final delivery keeps the caller's copy/move semantics.
                self._deliver(obj, dest, tag, copy=True, seq=seq,
                              checksum=checksum)
                return self._deliver(obj, dest, tag, copy=copy, seq=seq,
                                     checksum=checksum)
            if rule.kind == "corrupt":
                bad = faults.corrupted_copy(me_world, obj)
                if bad is None:
                    # Nothing corruptible in the payload; degrade to a
                    # clean delivery.
                    return self._deliver(obj, dest, tag, copy=copy, seq=seq,
                                         checksum=checksum)
                error = self._deliver(bad, dest, tag, copy=False, seq=seq,
                                      checksum=checksum)
                if not resilient:
                    return error  # silent corruption: no checksums, no retry
            else:  # "drop"
                if observers:
                    emit("drop", peer=self._members[dest], tag=tag)
                if not resilient:
                    return None  # lost for good: no resilience configured
            # The simulated ack timed out (drop) or the receiver will
            # discard the corrupted envelope — retransmit.
            attempts += 1
            if attempts > MAX_RETRIES:
                raise CommunicatorError(
                    f"message to rank {dest} (tag {tag}) lost after "
                    f"{MAX_RETRIES} retransmissions"
                )
            if observers:
                emit("retry", peer=self._members[dest], tag=tag,
                     attempt=attempts)

    def _deliver(
        self, obj: Any, dest: int, tag: int, *, copy: bool = True,
        seq: int | None = None, checksum: int | None = None,
    ):
        self._context.check_alive()
        nbytes = _payload_nbytes(obj)
        moved = (not copy) or _is_readonly_array(obj)
        payload = _freeze_payload(obj) if moved else _copy_payload(obj)
        san = self._context.sanitizer
        origin = None
        if san is not None:
            if moved:
                origin = san.note_move(
                    payload, self.world_rank, "send",
                    dest=self._members[dest],
                )
            else:
                origin = san.note_send(self.world_rank)
        # The one event of a send (peer is the destination *world* rank,
        # matching the postmortem view).
        if self._context.observers:
            emit("send", peer=self._members[dest], tag=tag,
                 comm_id=self._comm_id, nbytes=nbytes, moved=moved)
        env = Envelope(
            payload=payload, moved=moved, nbytes=nbytes,
            origin=origin, seq=seq, checksum=checksum,
        )
        # The transport seam: the threads backend appends to the shared
        # in-process mailbox, the process backends write the payload on
        # the link to the destination worker, which owns the mailbox.
        # A frame the link lost comes back as its error.
        return self._context.deliver(
            self._comm_id, self._members[dest], self._rank, tag, env
        )

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive matched on (source, tag) within this communicator."""
        self._check_rank(source, "source")
        if tag < 0:
            raise CommunicatorError("user tags must be non-negative")
        with self._comm_span("recv", source=source):
            return self._recv_internal(source, tag)

    def _recv_internal(self, source: int, tag: int) -> Any:
        ctx = self._context
        ctx.check_alive()
        # Observed-threshold gate, not the live flag — see
        # _send_internal for why this keeps fault replay deterministic.
        if self._comm_id < ctx.revocation_seen(self.world_rank):
            ctx.check_revoked(self._comm_id)
        if ctx.faults is not None:
            ctx.faults.on_op(self.world_rank)
        box = ctx.mailbox(self._comm_id, self.world_rank)
        while True:
            env = box.try_get(source, tag)
            if env is None:
                env = self._recv_blocking(box, source, tag)
            if self._accept(env, source, tag):
                return env.payload

    def _accept(self, env: Envelope, source: int, tag: int) -> bool:
        """Complete the receive of one envelope, or discard it (False).

        The one completion path of ``recv`` and ``irecv``: checksum and
        duplicate filter, the sanitizer's received-move registration,
        and the one ``recv`` event.  Plain envelopes
        (``seq is None`` — no resilience at the sender) skip the filter
        with one identity check.  Corrupted envelopes are discarded
        (one ``checksum`` event) and duplicates of an already-accepted
        sequence number are dropped silently; the caller loops to await
        the retransmission, which reuses the same sequence number.
        """
        ctx = self._context
        if env.seq is not None:
            if (env.checksum is not None
                    and _payload_checksum(env.payload) != env.checksum):
                if ctx.observers:
                    emit("checksum", peer=self._members[source], tag=tag)
                return False
            key = (source, tag)
            if env.seq < self._recv_seq.get(key, 0):
                return False  # duplicate of an accepted message
            self._recv_seq[key] = env.seq + 1
        if ctx.sanitizer is not None and env.moved:
            ctx.sanitizer.note_received_move(
                env.payload, self.world_rank, env.origin)
        if ctx.observers:
            emit("recv", peer=self._members[source], tag=tag,
                 comm_id=self._comm_id, nbytes=env.nbytes)
        return True

    def _recv_blocking(self, box, source: int, tag: int) -> Envelope:
        """Block for a matched message, watching for dead partners.

        The poll hook runs (outside the mailbox lock) before the first
        wait and whenever the wait wakes without a match: it raises
        :class:`~repro.errors.RankFailedError` once the awaited rank has
        finalized or died with nothing left in the queue — so a receive
        that can never be satisfied (including the exchanges inside
        ``barrier``) fails fast instead of deadlocking — and, under an
        active sanitizer, drives the wait-for-graph deadlock watchdog.
        """
        ctx = self._context
        san = ctx.sanitizer
        me = self.world_rank
        src_world = self._members[source]

        def poll() -> None:
            status = ctx.rank_status(src_world)
            # On a revoked epoch, raise only once the awaited message
            # can never arrive — the partner is dead, finalized, or off
            # recovering.  A partner still making progress gets to
            # deliver, so consume-vs-raise is decided by program state,
            # not by when the asynchronous revocation landed.
            if (self._comm_id < ctx.revoked_below
                    and not box.has(source, tag)
                    and (status != "running"
                         or ctx.is_recovering(src_world))):
                ctx.note_revocation_seen(me)
                ctx.check_revoked(self._comm_id)
            if status != "running" and not box.has(source, tag):
                if san is not None:
                    diag = san.describe_failed_partner(
                        me, src_world, source, tag, status, box,
                        expected=ctx.faults is not None and status == "failed",
                    )
                    raise RankFailedError(diag.message, diagnostic=diag)
                where = (
                    f"recv(source={source}, tag={tag})" if tag >= 0
                    else f"a collective exchange with rank {source}"
                )
                raise RankFailedError(
                    f"rank {me} blocked in {where} "
                    f"but rank {src_world} already {status}"
                )
            if san is not None:
                san.on_stall(me)

        if san is None:
            return box.get(source, tag, ctx.recv_timeout, poll=poll)
        # The stall watchdog measures time: the one timed wait.
        san.begin_wait(me, src_world, source, tag, self._comm_id, box)
        try:
            return box.get(source, tag, ctx.recv_timeout, poll=poll,
                           interval=san.watchdog_interval)
        finally:
            san.end_wait(me)

    def sendrecv(self, obj: Any, partner: int, tag: int = 0, *, copy: bool = True) -> Any:
        """Exchange payloads with ``partner`` (MPI_Sendrecv, symmetric).

        ``partner`` must be a valid rank of this communicator and
        ``tag`` non-negative — both are validated up front with a
        descriptive :class:`~repro.errors.CommunicatorError` instead of
        an ``IndexError`` or a hang inside the exchange.
        """
        self._check_rank(partner, "sendrecv partner")
        if tag < 0:
            raise CommunicatorError(
                f"user tags must be non-negative, got tag={tag} in sendrecv"
            )
        if partner == self._rank:
            return _freeze_payload(obj) if not copy else _copy_payload(obj)
        with self._comm_span("sendrecv", partner=partner):
            self._send_internal(obj, partner, tag, copy=copy)
            return self._recv_internal(partner, tag)

    # ------------------------------------------------------------------
    # Nonblocking point-to-point
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0, *, copy: bool = True):
        """Nonblocking send; completion means the payload is staged.

        On the threads backend staging *is* delivery (a mailbox
        append); on the process backends it is the write on the link
        to the destination, done before this returns.  Either way the
        request comes back complete — unless the write failed, in
        which case ``wait()``/``test()`` raise the failure — and
        completion never implies the receiver has *matched* the
        message (MPI buffered-send semantics).
        """
        from .request import Request

        self._check_rank(dest, "destination")
        if tag < 0:
            raise CommunicatorError("user tags must be non-negative")
        with self._comm_span("isend", dest=dest):
            error = self._send_internal(obj, dest, tag, copy=copy)
        if error is None:
            return Request.completed(kind="send")

        def complete(blocking: bool):
            raise CommunicatorError(
                f"isend staging failed: the payload never reached "
                f"its destination ({error})"
            ) from error

        return Request("send", complete_fn=complete)

    def irecv(self, source: int, tag: int = 0):
        """Nonblocking receive; complete with ``.wait()`` or poll ``.test()``."""
        from .request import Request

        self._check_rank(source, "source")
        if tag < 0:
            raise CommunicatorError("user tags must be non-negative")
        box = self._context.mailbox(self._comm_id, self.world_rank)

        def complete(blocking: bool):
            while True:
                env = box.try_get(source, tag)
                if env is None:
                    if not blocking:
                        return False, None
                    env = self._recv_blocking(box, source, tag)
                if self._accept(env, source, tag):
                    return True, env.payload

        return Request("recv", complete_fn=complete)

    # ------------------------------------------------------------------
    # Collectives (all ranks must call in the same order)
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return _COLLECTIVE_TAG_BASE - self._coll_seq

    def barrier(self) -> None:
        """Dissemination barrier (log P rounds of zero-byte exchanges).

        If a participating rank has already finalized or died, the
        exchange raises :class:`~repro.errors.RankFailedError` on the
        surviving ranks instead of deadlocking.
        """
        p, r = self.size, self._rank
        with self._collective("barrier", algorithm="dissemination"):
            tag = self._next_coll_tag()
            k = 1
            while k < p:
                dest = (r + k) % p
                src = (r - k) % p
                self._send_internal(None, dest, tag)
                self._recv_internal(src, tag)
                k *= 2

    # -- broadcast ------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the root's payload on every rank.

        ``ceil(log2 P)`` rounds of the whole payload, forwarded zero-copy
        past the root, so arrays returned may be read-only (they are
        shared, replicated data).
        """
        self._check_rank(root, "root")
        span = self._collective("bcast", lambda: (("root", root),),
                                algorithm="binomial", root=root)
        tag = self._next_coll_tag()
        if self.size == 1:
            return _copy_payload(obj)
        with span:
            if self._rank == root:
                self._dispatched("bcast", "binomial", obj)
            return self._bcast_binomial(obj, root, tag)

    def _bcast_binomial(self, value: Any, root: int, tag: int) -> Any:
        """Binomial-tree broadcast (MPICH scheme, zero-copy forwarding)."""
        p = self.size
        # Shift ranks so the root is virtual rank 0 (receive from the
        # parent across the lowest set bit, then forward to children
        # across every lower bit).
        vr = (self._rank - root) % p
        owned = False  # do we own `value` (may move it on forward)?
        mask = 1
        while mask < p:
            if vr & mask:
                value = self._recv_internal((vr - mask + root) % p, tag)
                owned = True
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vr + mask < p:
                dest = (vr + mask + root) % p
                # Root respects the caller's buffer (copy unless the
                # caller marked it read-only); forwarded payloads are
                # owned by this rank and move for free.
                self._send_internal(value, dest, tag, copy=not owned)
            mask >>= 1
        return value

    # -- reduce / allreduce --------------------------------------------
    def reduce(
        self,
        value: Any,
        root: int = 0,
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        """Binomial-tree reduction; returns the result on ``root``, None elsewhere.

        ``op`` defaults to elementwise addition.  It must be associative;
        the combine order is deterministic given the communicator size.
        """
        self._check_rank(root, "root")
        with self._collective(
            "reduce",
            lambda: (("root", root), ("op", _op_name(op)),
                     ("payload", _describe_payload(value))),
            algorithm="binomial", root=root,
        ):
            return self._reduce_binomial(
                value, root, op or _default_op, self._next_coll_tag())

    def _reduce_binomial(self, value: Any, root: int, op, tag: int) -> Any:
        p = self.size
        vr = (self._rank - root) % p
        acc = value
        owned = False  # acc is a fresh combine result (movable)
        m = 1
        while m < p:
            if vr % (2 * m) == 0:
                src = vr + m
                if src < p:
                    other = self._recv_internal((src + root) % p, tag)
                    acc = op(acc, other)
                    owned = True
            elif vr % (2 * m) == m:
                self._send_internal(acc, (vr - m + root) % p, tag, copy=not owned)
                acc = None
                break
            m *= 2
        return acc if vr == 0 else None

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] | None = None,
        algorithm: str | None = None,
    ) -> Any:
        """All-reduce (result on every rank), size-adaptively dispatched.

        ndarray payloads use recursive doubling (``ceil(log2 P)``
        exchange rounds — the short-message champion) below the
        crossover and the bandwidth-optimal ring (reduce-scatter +
        allgather, ``2 (P-1)/P`` of the payload) above it; generic
        payloads fall back to reduce+broadcast.  Force with
        ``algorithm='tree' | 'recursive_doubling' | 'ring'``.  The
        combine order of each algorithm is deterministic, so results are
        bitwise replicated across ranks.
        """
        algo = algorithm or _TUNING.allreduce_algorithm(self.size, value)
        with self._collective(
            "allreduce",
            lambda: (("algorithm", algorithm), ("op", _op_name(op)),
                     ("payload", _describe_payload(value))),
            payload=value, algorithm=algo,
        ):
            if algo == "tree":
                reduced = self.reduce(value, root=0, op=op)
                return self.bcast(reduced, root=0)
            if op is None:
                op = _default_op
            if algo == "recursive_doubling":
                return self._allreduce_recursive_doubling(
                    value, op, self._next_coll_tag()
                )
            if algo == "ring":
                return self._allreduce_ring(value, op)
            raise CommunicatorError(f"unknown allreduce algorithm {algo!r}")

    def _allreduce_recursive_doubling(self, value: Any, op, tag: int) -> Any:
        """Recursive-doubling allreduce (deterministic combine order).

        Non-power-of-two sizes use the standard fold: the first ``2r``
        ranks pre-combine pairwise so a power-of-two subset runs the
        butterfly, then results fan back out.
        """
        p, me = self.size, self._rank
        if _is_readonly_array(value):
            acc = value  # copy elision: frozen input can be shared as-is
        else:
            acc = np.array(value, copy=True)
        if p == 1:
            return acc
        p2 = 1 << (p.bit_length() - 1)
        rem = p - p2

        # Fold phase: ranks [p2, p) send into [0, rem).
        if me >= p2:
            self._send_internal(acc, me - p2, tag, copy=False)
            active = False
        else:
            active = True
            if me < rem:
                other = self._recv_internal(me + p2, tag)
                acc = op(acc, other)

        if active:
            mask = 1
            while mask < p2:
                partner = me ^ mask
                self._send_internal(acc, partner, tag, copy=False)
                other = self._recv_internal(partner, tag)
                # Deterministic order: lower rank's contribution first.
                acc = op(other, acc) if partner < me else op(acc, other)
                mask <<= 1

        # Unfold phase.
        if me >= p2:
            acc = self._recv_internal(me - p2, tag)
        elif me < rem:
            self._send_internal(acc, me + p2, tag, copy=False)
        return acc

    def _allreduce_ring(self, value: Any, op) -> np.ndarray:
        """Ring allreduce: reduce-scatter then allgather of equal blocks.

        Bandwidth-optimal for long messages: each rank moves
        ``2 (P-1)/P`` of the payload in ``2 (P-1)`` latency rounds.
        """
        p = self.size
        rs_tag = self._next_coll_tag()
        ag_tag = self._next_coll_tag()
        arr = np.asarray(value)
        shape, dtype = arr.shape, arr.dtype
        flat = np.ascontiguousarray(arr.reshape(-1))
        blocks = [
            flat[q0:q1]
            for q0, q1 in (block_range(flat.size, p, q) for q in range(p))
        ]
        mine = self._reduce_scatter_ring(blocks, op, rs_tag, copy=True)
        slots = self._allgather_ring(np.ascontiguousarray(mine), ag_tag, copy=False)
        return np.concatenate(slots).astype(dtype, copy=False).reshape(shape)

    # -- gather / allgather / scatter ----------------------------------
    def gather(self, obj: Any, root: int = 0) -> list | None:
        """Gather one payload per rank to ``root`` (list indexed by rank)."""
        self._check_rank(root, "root")
        with self._collective(
            "gather", lambda: (("root", root),), algorithm="linear", root=root
        ):
            tag = self._next_coll_tag()
            if self._rank == root:
                out = [None] * self.size
                out[root] = _copy_payload(obj)
                for r in range(self.size):
                    if r != root:
                        out[r] = self._recv_internal(r, tag)
                return out
            self._send_internal(obj, root, tag)
            return None

    def allgather(self, obj: Any) -> list:
        """Ring all-gather of one payload per rank (list indexed by rank).

        ``P-1`` shifts, each forwarding one received slot: every rank
        sends the same volume, so no rank is a hotspot.
        """
        with self._collective("allgather", payload=obj, algorithm="ring"):
            return self._allgather_ring(obj, self._next_coll_tag(), copy=True)

    def _allgather_ring(self, obj: Any, tag: int, *, copy: bool) -> list:
        """Ring allgather: P-1 shifts, each forwarding one received slot."""
        p, me = self.size, self._rank
        slots: list = [None] * p
        slots[me] = _copy_payload(obj) if copy else _freeze_payload(obj)
        if p == 1:
            return slots
        right = (me + 1) % p
        left = (me - 1) % p
        carry = slots[me]
        for step in range(p - 1):
            # Forwarded slots are owned by this rank: move them.
            self._send_internal(carry, right, tag, copy=False)
            carry = self._recv_internal(left, tag)
            slots[(me - step - 1) % p] = carry
        return slots

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one payload per rank from ``root``."""
        self._check_rank(root, "root")
        span = self._collective(
            "scatter", lambda: (("root", root),),
            algorithm="linear", root=root)
        tag = self._next_coll_tag()
        if self._rank == root and (objs is None or len(objs) != self.size):
            got = "None" if objs is None else f"{len(objs)}"
            raise CommunicatorError(
                f"scatter root on a size-{self.size} communicator needs "
                f"exactly {self.size} payloads, got {got}"
            )
        with span:
            if self._rank == root:
                for r in range(self.size):
                    if r != root:
                        self._send_internal(objs[r], r, tag)
                return _copy_payload(objs[root])
            return self._recv_internal(root, tag)

    # -- alltoall / reduce_scatter -------------------------------------
    def alltoall(self, objs: Sequence[Any], *, copy: bool = True) -> list:
        """Pairwise-exchange all-to-all (the paper's point-to-point algorithm).

        ``objs[r]`` is delivered to rank ``r``; returns the list received,
        indexed by source rank.  Uses ``P - 1`` rounds of shifted
        sendrecv, the schedule assumed by the cost analysis (Sec. 3.5).
        ``copy=False`` moves the payloads (the caller relinquishes them;
        their ndarrays are frozen read-only).
        """
        p = self.size
        try:
            nobjs = len(objs)
        except TypeError:
            raise CommunicatorError(
                f"alltoall needs a sequence of {p} payloads (one per "
                f"rank), got {type(objs).__name__}"
            ) from None
        if nobjs != p:
            raise CommunicatorError(
                f"alltoall on a size-{p} communicator needs exactly {p} "
                f"payloads (one per destination rank), got {nobjs}"
            )
        with self._collective(
            "alltoall", lambda: (("nitems", p),),
            payload=objs, algorithm="pairwise",
        ):
            tag = self._next_coll_tag()
            result: list = [None] * p
            own = objs[self._rank]
            result[self._rank] = (
                _copy_payload(own) if copy else _freeze_payload(own)
            )
            for shift in range(1, p):
                dest = (self._rank + shift) % p
                src = (self._rank - shift) % p
                self._send_internal(objs[dest], dest, tag, copy=copy)
                result[src] = self._recv_internal(src, tag)
            return result

    def reduce_scatter(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] | None = None,
        *,
        copy: bool = True,
    ) -> Any:
        """Reduce ``values[q]`` across ranks and deliver slot ``q`` to rank q.

        ndarray payloads take the ring shift-accumulate algorithm
        (``P-1`` rounds moving one partially-reduced slot — nothing to
        fold afterwards, and every forwarded partial sum is moved, not
        copied); generic payloads, which cannot be sliced, take the
        pairwise-exchange alltoall + deterministic source-order fold.
        ``copy=False`` moves the input payloads (the caller relinquishes
        them).  This is the collective behind the parallel TTM's
        mode-fiber reduction.
        """
        p = self.size
        try:
            nvals = len(values)
        except TypeError:
            raise CommunicatorError(
                f"reduce_scatter needs a sequence of {p} payloads (one "
                f"per rank), got {type(values).__name__}"
            ) from None
        if nvals != p:
            raise CommunicatorError(
                f"reduce_scatter on a size-{p} communicator needs exactly "
                f"{p} payloads (one slot per rank), got {nvals}"
            )
        ring = p > 1 and all(isinstance(v, np.ndarray) for v in values)
        with self._collective(
            "reduce_scatter",
            lambda: (("op", _op_name(op)),
                     ("payload", tuple(_describe_payload(v) for v in values))),
            payload=values, algorithm="ring" if ring else "alltoall",
        ):
            if op is None:
                op = _default_op
            if ring:
                return self._reduce_scatter_ring(
                    values, op, self._next_coll_tag(), copy=copy
                )
            parts = self.alltoall(values, copy=copy)
            acc = parts[0]
            for part in parts[1:]:
                acc = op(acc, part)
            return acc

    def _reduce_scatter_ring(
        self, values: Sequence[Any], op, tag: int, *, copy: bool
    ) -> Any:
        """Ring reduce-scatter: P-1 shift-accumulate rounds of one slot each.

        Slot ``q`` ends on rank ``q``, reduced over every rank's
        ``values[q]``; partial sums travel the ring and are always moved
        (each is a fresh combine result).
        """
        p, me = self.size, self._rank
        if not copy:
            # Move semantics: the caller relinquishes every piece, not
            # just the ones that happen to travel; freeze them all.
            for v in values:
                _freeze_payload(v)
        if p == 1:
            own = values[0]
            return _copy_payload(own) if copy else own
        right = (me + 1) % p
        left = (me - 1) % p
        # Slot j originates at rank j+1 and travels the ring once, each
        # rank folding in its contribution; after P-1 rounds rank j
        # holds the full reduction of slot j.  At step s this rank sends
        # its partial for slot (me-1-s) and receives/extends the one for
        # (me-2-s).
        carry = None
        for s in range(p - 1):
            if s == 0:
                self._send_internal(values[(me - 1) % p], right, tag, copy=copy)
            else:
                self._send_internal(carry, right, tag, copy=False)
            incoming = self._recv_internal(left, tag)
            carry = op(incoming, values[(me - 2 - s) % p])
        return carry

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Communicator | None":
        """Partition the communicator by ``color`` (MPI_Comm_split).

        Ranks passing the same color form a new communicator, ordered by
        ``(key, old rank)``.  ``color=None`` opts out and returns None.
        Collective: every rank must call.
        """
        return self._split((color, key))[0]

    def _split(self, *pairs: tuple) -> "list[Communicator | None]":
        """Several :meth:`split` calls in one rendezvous.

        ``pairs`` holds one ``(color, key)`` per split, as many on every
        rank; the result is the new communicator (or None) per pair.  The
        rendezvous (grouping, ordering, comm-id allocation) runs wherever
        the world state lives — in-process for the threads backend, on
        the master for the process backends, one RPC however many pairs —
        so new communicator ids are allocated exactly once per group, in
        pair order.
        """
        with self._collective("split", lambda: (("splits", len(pairs)),)):
            self._coll_seq += 1
            groups = self._context.split_rendezvous(
                self._comm_id, self._coll_seq, self.size, self._rank,
                tuple((color, self._rank if key is None else key)
                      for color, key in pairs),
                list(self._members), self.world_rank,
            )
        out = []
        for (color, _), by_color in zip(pairs, groups):
            if color is None:
                out.append(None)
                continue
            new_id, world_members, old_ranks = by_color[color]
            out.append(Communicator(
                self._context, new_id, world_members,
                old_ranks.index(self._rank),
            ))
        return out

    def dup(self) -> "Communicator":
        """Duplicate into an isolated message space (MPI_Comm_dup)."""
        child = self.split(color=0)
        assert child is not None
        return child

    # ------------------------------------------------------------------
    # Fault tolerance (ULFM-style revoke / shrink)
    # ------------------------------------------------------------------
    def revoke(self) -> None:
        """Poison the current communicator epoch (MPI_Comm_revoke).

        Call after catching :class:`~repro.errors.RankFailedError`:
        every operation on *any* communicator created so far — this
        one, the world, fiber sub-communicators — raises
        :class:`~repro.errors.CommRevokedError` once the executing rank
        *observes* the revocation: immediately for the revoking rank,
        and at the next blocking wait that can no longer be satisfied
        for everyone else.  That breaks survivors out of exchanges with
        partners that have left for recovery without ever interrupting
        a rank at a timing-dependent op — fault traces replay
        identically.  Communicators created after the subsequent
        :meth:`shrink` are unaffected.  Idempotent.
        """
        self._context.revoke_current(
            f"rank {self.world_rank} revoked the epoch after a failure",
            world_rank=self.world_rank,
        )

    def shrink(self) -> "Communicator":
        """Dense-ranked communicator of the survivors (MPI_Comm_shrink).

        Collective over the *surviving* members of this communicator —
        every survivor must call it, typically right after
        :meth:`revoke` in a recovery handler.  Survivors keep their
        relative order; the result is a fresh epoch on which all
        operations (including the sanitizer's collective matching, which
        keys on the new communicator id and size) behave normally.
        Unlike every other method, it works on a revoked communicator —
        that is its entire point.
        """
        ctx = self._context
        self._shrink_seq += 1
        members = self._members
        with self._comm_span("shrink"):
            # Survivor discovery and the fresh-epoch comm-id allocation
            # are one authoritative computation where the world state
            # lives (master-side under the process backend).
            new_id, ordered_old = ctx.shrink_rendezvous(
                self._comm_id, self._shrink_seq,
                self._rank, self.world_rank, list(members),
            )
        new_members = [members[i] for i in ordered_old]
        new_rank = ordered_old.index(self._rank)
        return Communicator(ctx, new_id, new_members, new_rank)
