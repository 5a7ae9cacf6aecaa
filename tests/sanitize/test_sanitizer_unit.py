"""Sanitizer building blocks and the runtime satellites: argument
validation on alltoall/sendrecv, fail-fast barriers, clean-run checks,
and the shared diagnostic vocabulary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    MessageLeakError,
    RankFailedError,
)
from repro.mpi import run_spmd
from repro.sanitize import CallSite, Diagnostic, format_diagnostics


class TestDiagnostics:
    def test_rendering(self):
        d = Diagnostic(
            kind="deadlock", message="rank 1 awaits rank 0",
            file="prog.py", line=12, rank=1,
        )
        assert d.location == "prog.py:12"
        assert str(d) == "prog.py:12: error[deadlock] rank 1: rank 1 awaits rank 0"

    def test_rendering_without_location_or_rank(self):
        d = Diagnostic(kind="message-leak", message="m")
        assert "error[message-leak]" in str(d)
        assert "None" not in str(d)

    def test_call_site_str(self):
        s = CallSite(file="a.py", line=3, function="f")
        assert str(s) == "a.py:3"

    def test_format_diagnostics(self):
        ds = [Diagnostic(kind="k", message="one"),
              Diagnostic(kind="k", message="two")]
        text = format_diagnostics(ds, header="2 finding(s):")
        assert text.splitlines()[0] == "2 finding(s):"
        assert len(text.splitlines()) == 3


class TestCleanRuns:
    """A correct program produces zero findings under full sanitizing."""

    def test_collective_battery_is_clean(self):
        def prog(comm):
            x = np.full(4, float(comm.rank))
            comm.barrier()
            b = comm.bcast(np.arange(3) if comm.rank == 0 else None, root=0)
            s = comm.allreduce(x)
            g = comm.allgather(comm.rank)
            sc = comm.scatter(
                [np.full(2, i) for i in range(comm.size)]
                if comm.rank == 1 else None,
                root=1,
            )
            at = comm.alltoall([np.full(1, comm.rank)] * comm.size)
            rs = comm.reduce_scatter([np.ones(2)] * comm.size)
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            sub.barrier()
            return (b.sum(), s.sum(), len(g), len(at), rs.sum())

        res = run_spmd(prog, 4, sanitize=True)
        assert len(res.sanitizer.findings) == 0
        # Symmetric results (bcast/allreduce/allgather/reduce_scatter
        # slot sums) agree across ranks; scatter/alltoall payloads don't.
        assert all(v == res[0] for v in res)

    def test_p2p_and_moves_are_clean(self):
        def prog(comm):
            peer = 1 - comm.rank
            if comm.rank == 0:
                comm.send(np.arange(8), dest=peer, tag=4, copy=False)
                return comm.recv(source=peer, tag=4).sum()
            got = comm.recv(source=peer, tag=4)
            comm.send(got.copy() * 2, dest=peer, tag=4, copy=False)
            return got.sum()

        res = run_spmd(prog, 2, sanitize=True)
        assert res.sanitizer.findings == []

    def test_disabled_sanitizer_costs_nothing_extra(self):
        def prog(comm):
            return comm.allreduce(np.ones(2)).sum()

        res = run_spmd(prog, 2)
        assert res.sanitizer is None


class TestArgumentValidation:
    """Satellite: malformed collective arguments fail with descriptive
    errors before any communication happens (sanitizer not required)."""

    def test_alltoall_wrong_length(self):
        def prog(comm):
            return comm.alltoall([np.ones(1)] * (comm.size + 1))

        with pytest.raises(CommunicatorError, match=r"alltoall on a size-2.*got 3"):
            run_spmd(prog, 2)

    def test_alltoall_not_a_sequence(self):
        def prog(comm):
            return comm.alltoall(x for x in range(comm.size))

        with pytest.raises(
            CommunicatorError, match="alltoall needs a sequence.*got generator"
        ):
            run_spmd(prog, 2)

    def test_reduce_scatter_wrong_length(self):
        def prog(comm):
            return comm.reduce_scatter([np.ones(1)])

        with pytest.raises(
            CommunicatorError, match=r"reduce_scatter on a size-2.*got 1"
        ):
            run_spmd(prog, 2)

    def test_sendrecv_partner_out_of_range(self):
        def prog(comm):
            return comm.sendrecv(np.ones(1), partner=comm.size, tag=0)

        with pytest.raises(CommunicatorError, match="sendrecv partner"):
            run_spmd(prog, 2)

    def test_sendrecv_negative_tag(self):
        def prog(comm):
            return comm.sendrecv(np.ones(1), partner=1 - comm.rank, tag=-3)

        with pytest.raises(
            CommunicatorError, match=r"non-negative, got tag=-3 in sendrecv"
        ):
            run_spmd(prog, 2)

    def test_scatter_wrong_payload_count(self):
        def prog(comm):
            payload = [np.ones(1)] * 3 if comm.rank == 0 else None
            return comm.scatter(payload, root=0)

        with pytest.raises(CommunicatorError, match=r"exactly 2 payloads, got 3"):
            run_spmd(prog, 2)


class TestFailFastBarrier:
    """A rank blocked on a finalized/failed partner raises instead of
    deadlocking — with or without sanitizing.  The sanitizer names a
    partner that returned without reaching a collective as the cause."""

    def test_barrier_after_partner_finalized_without_sanitizer(self):
        def prog(comm):
            if comm.rank == 0:
                return None  # finalizes immediately, skipping the barrier
            comm.barrier()  # repro-lint: skip — the bug under test

        with pytest.raises(RankFailedError, match="already finalized"):
            run_spmd(prog, 2, recv_timeout=10.0)

    def test_recv_from_failed_rank(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            return comm.recv(source=0, tag=0)  # repro-lint: skip

        # Rank 0's original error wins over rank 1's secondary failure.
        with pytest.raises(RuntimeError, match="boom"):
            run_spmd(prog, 2, recv_timeout=10.0)

    def test_sanitized_barrier_diagnostic_names_partner(self):
        """Under the sanitizer the root cause is the partner that returned
        without reaching the barrier, not the waiter's RankFailedError."""
        def prog(comm):
            if comm.rank == 0:
                return None
            comm.barrier()  # repro-lint: skip

        with pytest.raises(CollectiveMismatchError) as ei:
            run_spmd(prog, 2, sanitize=True, recv_timeout=10.0)
        (diag,) = ei.value.diagnostics
        assert diag.kind == "collective-mismatch"
        assert diag.extra["op"] == "barrier"
        assert "rank 1 calls barrier()" in diag.message
        assert "rank 0 never reaches" in diag.message

    def test_sanitized_recv_diagnostic_names_partner(self):
        def prog(comm):
            if comm.rank == 0:
                return None
            comm.recv(source=0, tag=0)  # repro-lint: skip

        with pytest.raises(RankFailedError) as ei:
            run_spmd(prog, 2, sanitize=True, recv_timeout=10.0)
        diag = ei.value.diagnostic
        assert diag.kind == "rank-failed"
        assert diag.rank == 1
        assert diag.extra["partner"] == 0


class TestSanitizerReport:
    def test_report_lists_findings(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(2), dest=1, tag=11)  # repro-lint: skip

        with pytest.raises(MessageLeakError) as ei:
            run_spmd(prog, 2, sanitize=True)
        text = format_diagnostics(ei.value.diagnostics)
        assert "message-leak" in text
        assert "tag 11" in text

    def test_clean_report_is_empty(self):
        def prog(comm):
            comm.barrier()

        res = run_spmd(prog, 2, sanitize=True)
        assert res.sanitizer.report() == ""


class TestInFlightAccounting:
    """CommTrace.in_flight_* pairs with the finalize leak report."""

    def test_undelivered_message_counts_as_in_flight(self):
        from repro.mpi import CommTrace

        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(32), dest=1, tag=2)  # repro-lint: skip

        with pytest.raises(MessageLeakError):
            run_spmd(prog, 2, comm_trace=trace, sanitize=True)
        assert trace.in_flight_messages() == 1
        assert trace.in_flight_bytes() == 32 * 8

    def test_clean_run_has_nothing_in_flight(self):
        from repro.mpi import CommTrace

        trace = CommTrace()

        def prog(comm):
            return comm.allreduce(np.ones(4)).sum()

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.in_flight_messages() == 0
        assert trace.in_flight_bytes() == 0
