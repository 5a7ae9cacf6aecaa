"""Adversarial SPMD programs: every classic silent-hang bug must be
detected deterministically, attributed to a rank and a ``file:line`` in
*this* file, and must never actually hang the test run.

The short ``recv_timeout`` on every run is a backstop only — the
sanitizer is required to fire long before it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CollectiveMismatchError,
    DeadlockError,
    MessageLeakError,
    RankFailedError,
    UseAfterMoveError,
)
from repro.mpi import run_spmd

TIMEOUT = 10.0  # backstop; detection must beat it by an order of magnitude


def _run(prog, p, **kw):
    return run_spmd(prog, p, sanitize=True, recv_timeout=TIMEOUT, **kw)


class TestCollectiveMismatch:
    def test_mismatched_collective_order(self):
        def prog(comm):
            if comm.rank == 0:
                comm.bcast(np.arange(3), root=0)
            else:
                comm.allreduce(np.ones(3))

        with pytest.raises(CollectiveMismatchError) as ei:
            _run(prog, 2)
        msg = str(ei.value)
        assert "collective order mismatch" in msg
        assert "bcast()" in msg and "allreduce()" in msg
        diags = ei.value.diagnostics
        assert len(diags) == 2
        assert {d.rank for d in diags} == {0, 1}
        for d in diags:
            assert d.kind == "collective-mismatch"
            assert d.file and d.file.endswith("test_adversarial.py")
            assert d.line and d.line > 0

    def test_divergent_bcast_root(self):
        def prog(comm):
            payload = np.arange(4) if comm.rank == 0 else None
            # Rank 1 believes the root is itself: signature mismatch.
            comm.bcast(payload, root=comm.rank % 2)

        with pytest.raises(CollectiveMismatchError) as ei:
            _run(prog, 2)
        msg = str(ei.value)
        assert "signature mismatch in bcast()" in msg
        assert "root=0" in msg and "root=1" in msg
        assert all(d.kind == "collective-mismatch"
                   for d in ei.value.diagnostics)

    def test_divergent_reduce_shape(self):
        def prog(comm):
            n = 3 if comm.rank == 0 else 4
            comm.allreduce(np.ones(n))

        with pytest.raises(CollectiveMismatchError) as ei:
            _run(prog, 2)
        assert "signature mismatch in allreduce()" in str(ei.value)


class TestDeadlock:
    def test_p2p_cycle_detected(self):
        def prog(comm):
            # Both ranks receive before either sends: textbook deadlock.
            peer = 1 - comm.rank
            val = comm.recv(source=peer, tag=0)
            comm.send(val, dest=peer, tag=0)

        with pytest.raises(DeadlockError) as ei:
            _run(prog, 2)
        msg = str(ei.value)
        assert "deadlock detected" in msg
        diags = ei.value.diagnostics
        assert {d.rank for d in diags} == {0, 1}
        for d in diags:
            assert d.kind == "deadlock"
            assert d.file and d.file.endswith("test_adversarial.py")

    def test_three_rank_cycle(self):
        def prog(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            got = comm.recv(source=left, tag=1)
            comm.send(got, dest=right, tag=1)

        with pytest.raises(DeadlockError) as ei:
            _run(prog, 3)
        assert {d.rank for d in ei.value.diagnostics} == {0, 1, 2}

    def test_report_names_each_ranks_open_span_from_the_tracer(self):
        from repro.obs import Tracer, trace_span

        def prog(comm):
            peer = 1 - comm.rank
            with trace_span("outer"), trace_span(f"wait{comm.rank}"):
                comm.recv(source=peer, tag=0)

        with pytest.raises(DeadlockError) as ei:
            _run(prog, 2, tracer=Tracer())
        msg = str(ei.value)
        assert "open span stacks at detection:" in msg
        assert "rank 0: outer > wait0" in msg
        assert "rank 1: outer > wait1" in msg


class TestUseAfterMove:
    def test_sender_mutation_after_zero_copy_send(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(8)
                comm.send(buf, dest=1, tag=0, copy=False)
                buf[0] = 2.0  # the bug under test
            else:
                comm.recv(source=0, tag=0)

        with pytest.raises(UseAfterMoveError) as ei:
            _run(prog, 2)
        msg = str(ei.value)
        assert "relinquishing it via send(copy=False)" in msg
        assert "test_adversarial.py" in msg  # the move site
        (diag,) = ei.value.diagnostics
        assert diag.kind == "use-after-move"
        assert diag.rank == 0
        assert diag.file.endswith("test_adversarial.py")

    def test_receiver_write_into_elided_copy(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1, tag=0, copy=False)
            else:
                got = comm.recv(source=0, tag=0)
                got += 1  # writes into the sender's moved buffer

        with pytest.raises(UseAfterMoveError) as ei:
            _run(prog, 2)
        msg = str(ei.value)
        assert "read-only zero-copy payload received from rank 0" in msg
        (diag,) = ei.value.diagnostics
        assert diag.rank == 1
        assert diag.file.endswith("test_adversarial.py")


class TestTagMismatch:
    def test_mismatched_tags_raise_not_hang(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(2), dest=1, tag=7)
            else:
                comm.recv(source=0, tag=9)

        with pytest.raises(RankFailedError) as ei:
            _run(prog, 2)
        diag = ei.value.diagnostic
        assert diag is not None
        assert diag.kind == "tag-mismatch"
        assert diag.rank == 1
        assert diag.extra["pending_tags"] == [7]
        assert "mismatched send/recv tags" in diag.message
        assert diag.file.endswith("test_adversarial.py")


class TestMessageLeak:
    def test_orphaned_message_reported_at_finalize(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(16), dest=1, tag=3)
            # rank 1 returns without receiving: the message leaks.

        with pytest.raises(MessageLeakError) as ei:
            _run(prog, 2)
        (diag,) = ei.value.diagnostics
        assert diag.kind == "message-leak"
        assert diag.rank == 0  # attributed to the sender
        assert diag.extra["dest"] == 1 and diag.extra["tag"] == 3
        assert diag.extra["count"] == 1
        assert diag.file.endswith("test_adversarial.py")
        assert "undelivered message" in diag.message

    def test_leak_findings_ride_on_the_error(self):
        """There is no record-only mode: a leak's findings are read off
        the raised error."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1, tag=5)

        with pytest.raises(MessageLeakError) as ei:
            _run(prog, 2)
        assert [(d.kind, d.extra["tag"]) for d in ei.value.diagnostics] == [
            ("message-leak", 5)]
