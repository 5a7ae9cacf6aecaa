"""Communication tracing: count messages and bytes per rank.

The paper's cost analysis (Sec. 3.5) makes concrete claims about message
*counts* and *volumes* — `P_n − 1` messages per processor for the
redistribution, `log P` triangle exchanges for the butterfly, and so on.
A :class:`CommTrace` attached to a world records exactly what each rank
sent, so tests can assert those formulas against the real execution
rather than trusting the model.

Usage::

    trace = CommTrace()
    res = run_spmd(fn, P, comm_trace=trace)
    trace.sent_messages(rank), trace.sent_bytes(rank)

Receive-side tallies (:meth:`recv_messages` / :meth:`recv_bytes`) use
the sender's modeled wire size carried in the message envelope, so both
sides of every transfer agree byte-for-byte; asymmetric patterns
(incast into a gather root, broadcast fan-out) show up as per-rank
send/recv imbalance.

Each collective schedule a rank runs (``"allreduce:ring"``,
``"alltoall:pairwise"``, ...) is tallied once per dispatch, not per
message: :meth:`schedules` gives how often it ran, its payload bytes
and its largest payload — the allreduce crossover and a solve's
schedule set are read off it.
"""

from __future__ import annotations

import threading
from collections import defaultdict

__all__ = ["CommTrace"]


class CommTrace:
    """Thread-safe per-rank tally of sent/received messages and bytes.

    Records are tagged with a free-form ``context`` label (set via
    :meth:`set_context`), letting callers attribute traffic to algorithm
    stages ("redistribute", "butterfly", ...).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages: dict = defaultdict(int)  # (rank, context) -> count
        self._bytes: dict = defaultdict(int)
        self._copied: dict = defaultdict(int)  # bytes snapshotted on send
        self._moved: dict = defaultdict(int)  # bytes transferred zero-copy
        self._recv_messages: dict = defaultdict(int)
        self._recv_bytes: dict = defaultdict(int)
        # Reliability counters (fault injection / resilience), per rank.
        # Run-wide — not split by context label: a retransmission isn't
        # meaningfully attributable to an algorithm stage.
        self._dropped: dict = defaultdict(int)  # injected drops (sender)
        self._retried: dict = defaultdict(int)  # retransmissions (sender)
        self._checksum_failures: dict = defaultdict(int)  # discards (receiver)
        self._connect_retries: dict = defaultdict(int)  # socket reconnects
        # Collective schedules, run-wide: "op:algorithm" -> dispatches,
        # payload bytes, and the largest payload.
        self._dispatches: dict = defaultdict(int)
        self._dispatch_bytes: dict = defaultdict(int)
        self._dispatch_peak: dict = defaultdict(int)
        self._context = threading.local()

    # -- context labels (per-thread, i.e. per-rank) ---------------------
    def set_context(self, label: str | None) -> None:
        """Label subsequent sends from this thread (None resets)."""
        self._context.label = label

    def _current_context(self) -> str:
        return getattr(self._context, "label", None) or "all"

    # -- observer protocol (the communicator's event stream) ------------
    def bind(self, rank: int) -> None:
        """A rank thread starts unlabelled (a forked worker's main
        thread is a clone of the caller's and inherits its label)."""
        self._context.label = None

    def on_event(self, rank: int, kind: str, name, detail: dict) -> None:
        """Tally one ``send``/``recv``/``dispatch``/``drop``/``retry``/
        ``checksum``."""
        if kind == "send":
            nbytes = detail["nbytes"]
            self.record_send(rank, nbytes, 0 if detail["moved"] else nbytes)
        elif kind == "recv":
            self.record_recv(rank, detail["nbytes"])
        elif kind == "dispatch":
            nbytes = detail["nbytes"]
            with self._lock:
                self._dispatches[name] += 1
                self._dispatch_bytes[name] += nbytes
                if nbytes > self._dispatch_peak[name]:
                    self._dispatch_peak[name] = nbytes
        elif kind == "drop":
            self.record_dropped(rank)
        elif kind == "retry":
            self.record_retried(rank)
        elif kind == "checksum":
            self.record_checksum_failure(rank)

    # -- recording -------------------------------------------------------
    def record_send(self, rank: int, nbytes: int, copied: int | None = None) -> None:
        """Tally one sent message.

        ``copied`` is how many of the ``nbytes`` were physically
        snapshotted on send; the rest were moved (zero-copy ownership
        transfer).  ``None`` (legacy callers) counts the whole payload
        as copied.
        """
        nbytes = int(nbytes)
        copied = nbytes if copied is None else int(copied)
        moved = nbytes - copied
        ctx = self._current_context()
        with self._lock:
            for c in ({ctx, "all"} if ctx != "all" else {"all"}):
                self._messages[(rank, c)] += 1
                self._bytes[(rank, c)] += nbytes
                self._copied[(rank, c)] += copied
                self._moved[(rank, c)] += moved

    def record_recv(self, rank: int, nbytes: int) -> None:
        """Tally one received message.

        ``nbytes`` is the sender's modeled wire size carried in the
        envelope — never re-measured on the receive side, so both
        tallies of a transfer agree exactly.
        """
        nbytes = int(nbytes)
        ctx = self._current_context()
        with self._lock:
            for c in ({ctx, "all"} if ctx != "all" else {"all"}):
                self._recv_messages[(rank, c)] += 1
                self._recv_bytes[(rank, c)] += nbytes

    def record_dropped(self, rank: int) -> None:
        """Tally one injected message drop at sender ``rank``."""
        with self._lock:
            self._dropped[rank] += 1

    def record_retried(self, rank: int) -> None:
        """Tally one retransmission by sender ``rank``."""
        with self._lock:
            self._retried[rank] += 1

    def record_checksum_failure(self, rank: int) -> None:
        """Tally one corrupted envelope discarded by receiver ``rank``."""
        with self._lock:
            self._checksum_failures[rank] += 1

    def record_connect_retry(self, rank: int) -> None:
        """Tally one transport connect/reconnect retry by rank ``rank``.

        Fed by the socket transport's RetryPolicy hooks (initial
        connects, post-reset reconnects); always 0 on in-process
        backends, where there is nothing to connect to.
        """
        with self._lock:
            self._connect_retries[rank] += 1

    # -- queries ---------------------------------------------------------
    def sent_messages(self, rank: int, context: str = "all") -> int:
        """Messages sent by ``rank`` under ``context``."""
        return self._messages.get((rank, context), 0)

    def sent_bytes(self, rank: int, context: str = "all") -> int:
        """Bytes sent by ``rank`` under ``context``."""
        return self._bytes.get((rank, context), 0)

    def total_messages(self, context: str = "all") -> int:
        """Messages sent by all ranks under ``context``."""
        with self._lock:
            return sum(v for (r, c), v in self._messages.items() if c == context)

    def total_bytes(self, context: str = "all") -> int:
        """Bytes sent by all ranks under ``context``."""
        with self._lock:
            return sum(v for (r, c), v in self._bytes.items() if c == context)

    def copied_bytes(self, rank: int, context: str = "all") -> int:
        """Bytes physically copied on send by ``rank`` under ``context``."""
        return self._copied.get((rank, context), 0)

    def moved_bytes(self, rank: int, context: str = "all") -> int:
        """Bytes moved zero-copy by ``rank`` under ``context``."""
        return self._moved.get((rank, context), 0)

    def total_copied_bytes(self, context: str = "all") -> int:
        """Bytes physically copied on send by all ranks under ``context``."""
        with self._lock:
            return sum(v for (r, c), v in self._copied.items() if c == context)

    def total_moved_bytes(self, context: str = "all") -> int:
        """Bytes moved zero-copy by all ranks under ``context``."""
        with self._lock:
            return sum(v for (r, c), v in self._moved.items() if c == context)

    def recv_messages(self, rank: int, context: str = "all") -> int:
        """Messages received by ``rank`` under ``context``."""
        return self._recv_messages.get((rank, context), 0)

    def recv_bytes(self, rank: int, context: str = "all") -> int:
        """Bytes received by ``rank`` under ``context``."""
        return self._recv_bytes.get((rank, context), 0)

    def total_recv_messages(self, context: str = "all") -> int:
        """Messages received by all ranks under ``context``."""
        with self._lock:
            return sum(
                v for (r, c), v in self._recv_messages.items() if c == context
            )

    def total_recv_bytes(self, context: str = "all") -> int:
        """Bytes received by all ranks under ``context``."""
        with self._lock:
            return sum(
                v for (r, c), v in self._recv_bytes.items() if c == context
            )

    def dropped_messages(self, rank: int | None = None) -> int:
        """Injected drops at sender ``rank`` (or all ranks)."""
        with self._lock:
            if rank is not None:
                return self._dropped.get(rank, 0)
            return sum(self._dropped.values())

    def retried_messages(self, rank: int | None = None) -> int:
        """Retransmissions by sender ``rank`` (or all ranks)."""
        with self._lock:
            if rank is not None:
                return self._retried.get(rank, 0)
            return sum(self._retried.values())

    def checksum_failures(self, rank: int | None = None) -> int:
        """Corrupted envelopes discarded by receiver ``rank`` (or all)."""
        with self._lock:
            if rank is not None:
                return self._checksum_failures.get(rank, 0)
            return sum(self._checksum_failures.values())

    def connect_retries(self, rank: int | None = None) -> int:
        """Transport connect/reconnect retries by ``rank`` (or all)."""
        with self._lock:
            if rank is not None:
                return self._connect_retries.get(rank, 0)
            return sum(self._connect_retries.values())

    def schedules(self) -> dict:
        """``{"op:algorithm": {"dispatches", "bytes", "max_bytes"}}``,
        sorted by schedule: every rank's dispatch counts once (a bcast
        dispatches at its root only, the rank that holds the payload)."""
        with self._lock:
            return {
                name: {"dispatches": count,
                       "bytes": self._dispatch_bytes[name],
                       "max_bytes": self._dispatch_peak[name]}
                for name, count in sorted(self._dispatches.items())
            }

    def in_flight_messages(self, context: str = "all") -> int:
        """Messages sent but not (yet) received under ``context``.

        Non-zero after a run completed means undelivered traffic — the
        same condition the sanitizer's finalize-time leak report flags
        with sender call sites (see :mod:`repro.sanitize`).
        """
        return self.total_messages(context) - self.total_recv_messages(context)

    def in_flight_bytes(self, context: str = "all") -> int:
        """Bytes sent but not (yet) received under ``context``."""
        return self.total_bytes(context) - self.total_recv_bytes(context)

    def contexts(self) -> set:
        """All context labels that recorded any traffic."""
        with self._lock:
            return {c for (_r, c) in self._messages} | {
                c for (_r, c) in self._recv_messages
            }

    # -- cross-process shard transfer (observer protocol) -----------------
    _TALLIES = (
        "messages", "bytes", "copied", "moved", "recv_messages",
        "recv_bytes", "dropped", "retried", "checksum_failures",
        "connect_retries", "dispatches", "dispatch_bytes", "dispatch_peak",
    )

    def shard(self, rank: int, since: dict | None):
        """The tallies changed since the snapshot ``since``.

        Counts are additive, so a forked worker that inherited
        pre-existing counts ships only its own traffic; a changed peak
        ships whole (a maximum absorbs idempotently).  Returns
        ``(delta, snapshot)``; the delta is ``None`` when nothing moved.
        """
        with self._lock:
            now = {f: dict(getattr(self, "_" + f)) for f in self._TALLIES}
        delta = {}
        for field, tallies in now.items():
            base = since.get(field, {}) if since else {}
            peak = field == "dispatch_peak"
            diff = {k: v if peak else v - base.get(k, 0)
                    for k, v in tallies.items() if v != base.get(k, 0)}
            if diff:
                delta[field] = diff
        return delta or None, now

    def absorb(self, rank: int, delta: dict) -> None:
        """Fold a :meth:`shard` delta in place."""
        with self._lock:
            for field, tallies in delta.items():
                target = getattr(self, "_" + field)
                for key, value in tallies.items():
                    if field == "dispatch_peak":
                        target[key] = max(target[key], value)
                    else:
                        target[key] += value

    # -- export -----------------------------------------------------------
    def ranks(self, context: str = "all") -> list[int]:
        """Ranks that recorded any traffic under ``context``, sorted."""
        with self._lock:
            out = {r for (r, c) in self._messages if c == context}
            out |= {r for (r, c) in self._recv_messages if c == context}
        return sorted(out)

    def to_dict(self, context: str = "all") -> dict:
        """Plain-dict snapshot of the tallies under ``context``.

        ``{"context", "ranks": {rank: {sent_messages, sent_bytes,
        copied_bytes, moved_bytes, recv_messages, recv_bytes,
        dropped_messages, retried_messages, checksum_failures}},
        "totals": {...same keys...}, "schedules": {...}}`` —
        JSON-serialisable, for report files.  The reliability counters
        and the :meth:`schedules` are run-wide (identical under every
        context label).
        """
        per_rank = {}
        for r in self.ranks(context):
            per_rank[r] = {
                "sent_messages": self.sent_messages(r, context),
                "sent_bytes": self.sent_bytes(r, context),
                "copied_bytes": self.copied_bytes(r, context),
                "moved_bytes": self.moved_bytes(r, context),
                "recv_messages": self.recv_messages(r, context),
                "recv_bytes": self.recv_bytes(r, context),
                "dropped_messages": self.dropped_messages(r),
                "retried_messages": self.retried_messages(r),
                "checksum_failures": self.checksum_failures(r),
                "connect_retries": self.connect_retries(r),
            }
        totals = {
            "sent_messages": self.total_messages(context),
            "sent_bytes": self.total_bytes(context),
            "copied_bytes": self.total_copied_bytes(context),
            "moved_bytes": self.total_moved_bytes(context),
            "recv_messages": self.total_recv_messages(context),
            "recv_bytes": self.total_recv_bytes(context),
            "dropped_messages": self.dropped_messages(),
            "retried_messages": self.retried_messages(),
            "checksum_failures": self.checksum_failures(),
            "connect_retries": self.connect_retries(),
        }
        return {"context": context, "ranks": per_rank, "totals": totals,
                "schedules": self.schedules()}

    def as_table(self, context: str = "all", *, title: str | None = None) -> str:
        """Render the per-rank tallies as an aligned report table, below
        the collective schedules when any ran (so the last line is
        always the ``total`` row)."""
        from ..util.tables import format_table

        snap = self.to_dict(context)
        schedules = ""
        if snap["schedules"]:
            schedules = format_table(
                ["schedule", "dispatches", "bytes", "max bytes"],
                [[name, s["dispatches"], s["bytes"], s["max_bytes"]]
                 for name, s in snap["schedules"].items()],
                title="Collective schedules (run-wide)",
            ) + "\n\n"
        # Reliability columns appear only when any fault-tolerance
        # traffic was recorded, keeping the common table compact.
        t = snap["totals"]
        reliability = bool(
            t["dropped_messages"] or t["retried_messages"]
            or t["checksum_failures"] or t["connect_retries"]
        )
        headers = [
            "rank", "sent msgs", "sent bytes", "copied", "moved",
            "recv msgs", "recv bytes",
        ]
        if reliability:
            headers += ["dropped", "retried", "cksum fail", "reconnects"]
        rows = []
        for r, d in sorted(snap["ranks"].items()):
            row = [
                r, d["sent_messages"], d["sent_bytes"], d["copied_bytes"],
                d["moved_bytes"], d["recv_messages"], d["recv_bytes"],
            ]
            if reliability:
                row += [
                    d["dropped_messages"], d["retried_messages"],
                    d["checksum_failures"], d["connect_retries"],
                ]
            rows.append(row)
        total_row = [
            "total", t["sent_messages"], t["sent_bytes"], t["copied_bytes"],
            t["moved_bytes"], t["recv_messages"], t["recv_bytes"],
        ]
        if reliability:
            total_row += [
                t["dropped_messages"], t["retried_messages"],
                t["checksum_failures"], t["connect_retries"],
            ]
        rows.append(total_row)
        return schedules + format_table(
            headers, rows,
            title=title or f"Communication tallies (context={context})",
        )
