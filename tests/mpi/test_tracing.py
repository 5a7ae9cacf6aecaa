"""Communication-trace tests: assert the paper's message-count formulas
against the real execution of the parallel kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dist import (
    DistributedTensor,
    GridComms,
    ProcessorGrid,
    butterfly_tsqr_reduce,
    par_tensor_gram,
    redistribute_unfolding_to_columns,
)
from repro.mpi import run_spmd, CommTrace


class TestTraceBasics:
    def test_counts_and_bytes(self):
        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1)  # 80 bytes
                comm.send(np.zeros(5, dtype=np.float32), 1)  # 20 bytes
            elif comm.rank == 1:
                comm.recv(0)
                comm.recv(0)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.sent_messages(0) == 2
        assert trace.sent_bytes(0) == 100
        assert trace.sent_messages(1) == 0

    def test_copied_vs_moved_split(self):
        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1)  # copied: 80 bytes
                comm.send(np.zeros(5), 1, copy=False)  # moved: 40 bytes
                frozen = np.zeros(3)
                frozen.flags.writeable = False
                comm.send(frozen, 1)  # copy elided: moved 24 bytes
            elif comm.rank == 1:
                for _ in range(3):
                    comm.recv(0)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.sent_bytes(0) == 144
        assert trace.copied_bytes(0) == 80
        assert trace.moved_bytes(0) == 64
        assert trace.total_copied_bytes() == 80
        assert trace.total_moved_bytes() == 64

    def test_copied_moved_default_zero(self):
        trace = CommTrace()
        assert trace.copied_bytes(0) == 0
        assert trace.moved_bytes(0) == 0
        # Legacy callers that don't pass `copied` count as fully copied.
        trace.record_send(0, 100)
        assert trace.copied_bytes(0) == 100
        assert trace.moved_bytes(0) == 0

    def test_contexts_attribute_traffic(self):
        trace = CommTrace()

        def prog(comm):
            trace.set_context("phase-a")
            comm.sendrecv(np.zeros(4), comm.rank ^ 1)
            trace.set_context("phase-b")
            comm.sendrecv(np.zeros(2), comm.rank ^ 1)
            trace.set_context(None)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.total_messages("phase-a") == 2
        assert trace.total_messages("phase-b") == 2
        assert trace.total_bytes("phase-a") == 2 * 32
        assert "phase-a" in trace.contexts()


class TestPaperMessageCounts:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_butterfly_log_p_messages(self, p):
        """Alg. 3's tree: log2(P) exchanges per rank (power-of-two P)."""
        trace = CommTrace()

        def prog(comm):
            R = np.triu(np.ones((4, 4)))
            butterfly_tsqr_reduce(comm, R)

        run_spmd(prog, p, comm_trace=trace)
        expected = int(math.log2(p))
        for r in range(p):
            assert trace.sent_messages(r) == expected

    @pytest.mark.parametrize("grid", [(4, 1, 1), (2, 3, 1)])
    def test_redistribution_pn_minus_1_messages(self, grid):
        """Sec. 3.5: the all-to-all sends P_n - 1 messages per processor."""
        X = np.random.default_rng(0).standard_normal((8, 9, 6))
        trace = CommTrace()
        n = 0
        p_n = grid[n]

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("redist")
            redistribute_unfolding_to_columns(dt, n)
            trace.set_context(None)

        run_spmd(prog, int(np.prod(grid)), comm_trace=trace)
        for r in range(int(np.prod(grid))):
            assert trace.sent_messages(r, "redist") == p_n - 1

    def test_redistribution_volume_matches_model(self):
        """Per-rank redistribution volume ~ local tensor size * (P_n-1)/P_n."""
        X = np.random.default_rng(1).standard_normal((12, 10, 8))
        grid = (4, 1, 1)
        trace = CommTrace()

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("redist")
            redistribute_unfolding_to_columns(dt, 0)
            trace.set_context(None)

        run_spmd(prog, 4, comm_trace=trace)
        local_bytes = X.nbytes / 4
        expected = local_bytes * 3 / 4
        for r in range(4):
            assert trace.sent_bytes(r, "redist") == pytest.approx(expected, rel=0.15)

    def test_gram_cheaper_in_messages_when_pn_1(self):
        """With P_n = 1 the Gram path skips redistribution entirely."""
        X = np.random.default_rng(2).standard_normal((6, 8, 10))
        t1, t2 = CommTrace(), CommTrace()

        def prog_mode(comm, mode, trace):
            comms = GridComms(comm, ProcessorGrid((1, 1, 4)))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("gram")
            par_tensor_gram(dt, mode)
            trace.set_context(None)

        run_spmd(prog_mode, 4, 0, t1, comm_trace=t1)  # P_0 = 1
        run_spmd(prog_mode, 4, 2, t2, comm_trace=t2)  # P_2 = 4
        assert t1.total_bytes("gram") < t2.total_bytes("gram")

    def test_redistribution_is_zero_copy(self):
        """The alltoall payloads are staged temporaries — all moved."""
        X = np.random.default_rng(3).standard_normal((12, 10, 8))
        trace = CommTrace()

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((4, 1, 1)))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("redist")
            redistribute_unfolding_to_columns(dt, 0)
            trace.set_context(None)

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.total_bytes("redist") > 0
        assert trace.total_copied_bytes("redist") == 0
        assert trace.total_moved_bytes("redist") == trace.total_bytes("redist")

    def test_gram_allreduce_elides_copies(self):
        """G_local is marked read-only, so the allreduce moves every send."""
        X = np.random.default_rng(4).standard_normal((6, 8, 10))
        trace = CommTrace()

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((1, 1, 4)))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("gram")
            par_tensor_gram(dt, 0)
            trace.set_context(None)

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.total_bytes("gram") > 0
        assert trace.total_copied_bytes("gram") == 0


class TestReceiveTallies:
    def test_send_recv_totals_balance(self):
        """Every byte sent is received: world totals agree exactly
        (recv uses the sender's modeled wire size from the envelope)."""
        trace = CommTrace()

        def prog(comm):
            comm.allreduce(np.ones(8))
            comm.alltoall([np.full(3, comm.rank) for _ in range(comm.size)])
            comm.barrier()

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.total_messages() == trace.total_recv_messages()
        assert trace.total_bytes() == trace.total_recv_bytes()
        assert trace.total_bytes() > 0

    def test_incast_asymmetry_at_gather_root(self):
        """A linear gather concentrates receives on the root."""
        trace = CommTrace()

        def prog(comm):
            comm.gather(np.ones(4), root=0)

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.recv_messages(0) == 3
        assert trace.recv_bytes(0) == 3 * 32
        for r in range(1, 4):
            assert trace.recv_messages(r) == 0
            assert trace.sent_messages(r) == 1

    def test_recv_context_labels(self):
        trace = CommTrace()

        def prog(comm):
            trace.set_context("xchg")
            comm.sendrecv(np.zeros(4), comm.rank ^ 1)
            trace.set_context(None)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.total_recv_messages("xchg") == 2
        assert trace.total_recv_bytes("xchg") == 2 * 32
        assert trace.recv_bytes(0, "xchg") == 32

    def test_recv_only_context_still_listed(self):
        trace = CommTrace()
        trace.set_context("weird")
        trace.record_recv(0, 10)
        trace.set_context(None)
        assert "weird" in trace.contexts()
        assert 0 in trace.ranks("weird")


class TestExports:
    @staticmethod
    def _traced_world():
        trace = CommTrace()

        def prog(comm):
            comm.allreduce(np.ones(8))

        run_spmd(prog, 4, comm_trace=trace)
        return trace

    def test_to_dict_structure(self):
        trace = self._traced_world()
        snap = trace.to_dict()
        assert snap["context"] == "all"
        assert sorted(snap["ranks"]) == [0, 1, 2, 3]
        keys = {"sent_messages", "sent_bytes", "copied_bytes",
                "moved_bytes", "recv_messages", "recv_bytes",
                "retried_messages", "dropped_messages",
                "checksum_failures", "connect_retries"}
        for d in snap["ranks"].values():
            assert set(d) == keys
        assert set(snap["totals"]) == keys
        assert snap["totals"]["sent_messages"] == sum(
            d["sent_messages"] for d in snap["ranks"].values()
        )
        assert snap["totals"]["sent_bytes"] == snap["totals"]["recv_bytes"]

    def test_to_dict_is_json_serializable(self):
        import json

        trace = self._traced_world()
        assert json.loads(json.dumps(trace.to_dict()))["context"] == "all"

    def test_as_table_rows(self):
        trace = self._traced_world()
        table = trace.as_table(title="comm")
        assert "comm" in table
        for header in ("rank", "sent msgs", "recv bytes"):
            assert header in table
        assert "total" in table

    def test_empty_trace_exports(self):
        trace = CommTrace()
        snap = trace.to_dict()
        assert snap["ranks"] == {}
        assert snap["totals"]["sent_messages"] == 0
        assert "total" in trace.as_table()


class TestSchedules:
    def test_one_dispatch_per_rank_per_collective(self):
        trace = CommTrace()

        def prog(comm):
            comm.allreduce(np.ones(16), algorithm="recursive_doubling")
            comm.allreduce(np.ones(8), algorithm="recursive_doubling")

        run_spmd(prog, 4, comm_trace=trace)
        assert trace.schedules() == {"allreduce:recursive_doubling": {
            "dispatches": 8, "bytes": 4 * (128 + 64), "max_bytes": 128}}
        assert trace.to_dict("solve")["schedules"] == trace.schedules()

    def test_shard_ships_counts_as_deltas_and_peaks_whole(self):
        forked = CommTrace()
        forked.on_event(0, "dispatch", "bcast:binomial", {"nbytes": 64})
        _, cursor = forked.shard(0, None)
        forked.on_event(0, "dispatch", "bcast:binomial", {"nbytes": 16})
        forked.on_event(0, "dispatch", "bcast:binomial", {"nbytes": 512})
        delta, _ = forked.shard(0, cursor)
        home = CommTrace()
        home.on_event(1, "dispatch", "bcast:binomial", {"nbytes": 1024})
        home.absorb(0, delta)
        assert home.schedules() == {"bcast:binomial": {
            "dispatches": 3, "bytes": 1024 + 16 + 512, "max_bytes": 1024}}

    def test_table_lists_schedules_above_the_total_row(self):
        trace = CommTrace()
        run_spmd(lambda comm: comm.allreduce(np.ones(8)), 4, comm_trace=trace)
        lines = trace.as_table().splitlines()
        (row,) = [i for i, line in enumerate(lines)
                  if line.startswith("allreduce:recursive_doubling")]
        assert [c.strip() for c in lines[row].split("|")[1:]] == \
            ["4", "256", "64"]
        assert lines[-1].startswith("total")
        assert "schedule" not in CommTrace().as_table()
