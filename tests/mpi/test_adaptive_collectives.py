"""Collective engine: equivalence, zero-copy safety, dispatch.

Three suites pin down the collectives:

* **Equivalence** — every collective produces bitwise-identical results
  to a textbook schedule composed of other public collectives (gather +
  bcast for allgather, scatter + allgather for bcast, generic payloads'
  alltoall + fold for reduce_scatter) and, for allreduce, to each forced
  algorithm, across P in {1, 2, 3, 5, 8, 16}, including the
  non-power-of-two fold/unfold paths.  Payloads are integer-valued
  doubles, so every associativity order sums exactly.
* **Zero-copy safety** — ``send(copy=False)`` freezes the sender's
  buffer (reuse raises ``ValueError``) and the receiver's payload stays
  intact; read-only arrays are moved automatically (copy elision).
* **Dispatch observability** — the allreduce switches schedule at its
  256 KiB crossover on every backend, the ring allgather is no
  gather-to-root hotspot at P >= 16, and the TTM fiber reduce-scatter
  snapshots none of its payloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dist import (
    DistributedTensor,
    GridComms,
    ProcessorGrid,
    block_range,
    par_ttm_truncate,
)
from repro.mpi import CommTrace, run_spmd
from repro.tensor.ttm import ttm
from tests.mpi.test_cart_and_algorithms import scatter_allgather

P_SET = [1, 2, 3, 5, 8, 16]


def _ints(rank: int, size: int, seed: int = 0) -> np.ndarray:
    """Integer-valued float64 payload (exact under any summation order)."""
    rng = np.random.default_rng(1000 * seed + rank)
    return rng.integers(-50, 50, size=size).astype(np.float64)


def _assert_all_equal(reference: list, candidate: list) -> None:
    assert len(reference) == len(candidate)
    for ref, got in zip(reference, candidate):
        np.testing.assert_array_equal(np.asarray(ref), np.asarray(got))


class TestAllreduceEquivalence:
    @pytest.mark.parametrize("p", P_SET)
    def test_all_algorithms_bitwise_identical(self, p):
        def prog(comm, algorithm):
            x = _ints(comm.rank, 13)
            return comm.allreduce(x, algorithm=algorithm)

        ref = list(run_spmd(prog, p, "tree"))  # the old default
        for algo in ("recursive_doubling", "ring", None):
            _assert_all_equal(ref, list(run_spmd(prog, p, algo)))

    @pytest.mark.parametrize("p", [3, 5])
    def test_custom_op_through_nonpow2_fold(self, p):
        def prog(comm, algorithm):
            x = _ints(comm.rank, 9, seed=3)
            return comm.allreduce(x, op=np.maximum, algorithm=algorithm)

        ref = list(run_spmd(prog, p, "tree"))
        for algo in ("recursive_doubling", "ring"):
            _assert_all_equal(ref, list(run_spmd(prog, p, algo)))

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_payload_shorter_than_ranks(self, p):
        """Ring blocks can be empty when the payload has < P elements."""
        def prog(comm, algorithm):
            x = _ints(comm.rank, 3, seed=5)
            return comm.allreduce(x, algorithm=algorithm)

        ref = list(run_spmd(prog, p, "tree"))
        _assert_all_equal(ref, list(run_spmd(prog, p, "ring")))


class TestBcastEquivalence:
    @pytest.mark.parametrize("p", P_SET)
    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_binomial_vs_scatter_allgather(self, p, size):
        def prog(comm):
            obj = _ints(0, size, seed=7) if comm.rank == 0 else None
            return comm.bcast(obj, root=0), scatter_allgather(comm, obj, 0)

        for got, composed in run_spmd(prog, p):
            np.testing.assert_array_equal(got, composed)
            np.testing.assert_array_equal(got, _ints(0, size, seed=7))

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_two_dimensional_payload_dispatches(self, p):
        """The binomial tree forwards N-D payloads whole."""
        payload = _ints(0, 24, seed=9).reshape(6, 4)

        def prog(comm):
            return comm.bcast(payload if comm.rank == 0 else None, root=0)

        got = list(run_spmd(prog, p))
        _assert_all_equal([payload] * p, got)
        assert got[0].shape == (6, 4)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_nonzero_root(self, p):
        def prog(comm):
            root = p - 1
            obj = _ints(99, 40, seed=11) if comm.rank == root else None
            return comm.bcast(obj, root=root), scatter_allgather(comm, obj, root)

        for got, composed in run_spmd(prog, p):
            np.testing.assert_array_equal(got, composed)
            np.testing.assert_array_equal(got, _ints(99, 40, seed=11))


def gather_bcast(comm, obj):
    """The textbook allgather: gather to rank 0, broadcast the list."""
    return comm.bcast(comm.gather(obj, root=0), root=0)


class TestAllgatherEquivalence:
    @pytest.mark.parametrize("p", P_SET)
    def test_all_algorithms_bitwise_identical(self, p):
        def prog(comm):
            x = _ints(comm.rank, 11, seed=13)
            return comm.allgather(x), gather_bcast(comm, x)

        for got, composed in run_spmd(prog, p):
            _assert_all_equal(composed, got)
            _assert_all_equal([_ints(r, 11, seed=13) for r in range(p)], got)

    @pytest.mark.parametrize("p", [1, 3, 5, 16])
    def test_object_payloads(self, p):
        """The ring forwards non-array payloads too."""
        def prog(comm):
            obj = ("rank", comm.rank)
            return comm.allgather(obj), gather_bcast(comm, obj)

        expected = [("rank", r) for r in range(p)]
        for got, composed in run_spmd(prog, p):
            assert got == composed == expected


class TestReduceScatterEquivalence:
    @pytest.mark.parametrize("p", P_SET)
    def test_generic_vs_ndarray_bitwise_identical(self, p):
        """ndarray slots take the ring, generic ones the alltoall + fold."""
        def prog(comm, generic):
            # Uneven slot sizes (slot q has 4+q elements on every rank).
            values = [_ints(comm.rank, 4 + q, seed=17 + q) for q in range(p)]
            if generic:
                return comm.reduce_scatter([v.tolist() for v in values],
                                           op=np.add)
            return comm.reduce_scatter(values)

        _assert_all_equal(list(run_spmd(prog, p, True)),
                          list(run_spmd(prog, p, False)))

    @pytest.mark.parametrize("p", [3, 8])
    def test_custom_op(self, p):
        def prog(comm, generic):
            values = [_ints(comm.rank, 6, seed=23 + q) for q in range(p)]
            if generic:
                values = [v.tolist() for v in values]
            return comm.reduce_scatter(values, op=np.maximum)

        _assert_all_equal(list(run_spmd(prog, p, True)),
                          list(run_spmd(prog, p, False)))


class TestZeroCopySafety:
    def test_moved_buffer_is_frozen_and_receiver_intact(self):
        """Reusing a buffer after send(copy=False) raises instead of
        corrupting the receiver."""
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(8.0)
                comm.send(buf, 1, copy=False)
                with pytest.raises(ValueError):
                    buf[0] = 999.0
                comm.send(None, 1)  # let rank 1 finish checking first
                return None
            got = comm.recv(0)
            comm.recv(0)
            return np.array(got, copy=True)

        res = run_spmd(prog, 2)
        np.testing.assert_array_equal(res[1], np.arange(8.0))

    def test_default_send_still_copies(self):
        """The blocking-send contract is unchanged by default."""
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(4.0)
                comm.send(buf, 1)
                buf[:] = -1.0  # legal, and must not reach the receiver
                comm.send(None, 1)
                return None
            got = comm.recv(0)
            comm.recv(0)
            return np.array(got, copy=True)

        res = run_spmd(prog, 2)
        np.testing.assert_array_equal(res[1], np.arange(4.0))

    def test_readonly_array_elides_copy(self):
        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(16.0)
                buf.flags.writeable = False
                comm.send(buf, 1)
            else:
                comm.recv(0)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.moved_bytes(0) == 128
        assert trace.copied_bytes(0) == 0

    def test_collective_move_freezes_inputs(self):
        """reduce_scatter(copy=False) relinquishes the caller's pieces."""
        def prog(comm):
            p = comm.size
            values = [np.full(3, float(comm.rank + q)) for q in range(p)]
            out = comm.reduce_scatter(values, copy=False)
            for v in values:
                with pytest.raises(ValueError):
                    v[0] = -1.0
            return np.array(out, copy=True)

        res = run_spmd(prog, 4)
        for q in range(4):
            expected = np.full(3, float(sum(r + q for r in range(4))))
            np.testing.assert_array_equal(res[q], expected)


class TestDispatchObservability:
    @pytest.mark.parametrize("backend", ["threads", "sockets"])
    def test_allreduce_crossover_is_256_kib(self, backend):
        """One float64 below 256 KiB runs recursive doubling; 256 KiB
        runs the ring — read off the schedule tally, and the ring's
        message count proves it executed."""
        n_ring = (1 << 18) // 8

        def prog(comm):
            comm.allreduce(np.ones(n_ring - 1))
            comm.allreduce(np.ones(n_ring))

        trace = CommTrace()
        run_spmd(prog, 4, backend=backend, comm_trace=trace,
                 recv_timeout=60.0)
        schedules = trace.schedules()
        assert set(schedules) == {"allreduce:recursive_doubling",
                                  "allreduce:ring"}
        rd = schedules["allreduce:recursive_doubling"]
        ring = schedules["allreduce:ring"]
        assert (rd["dispatches"], rd["max_bytes"]) == (4, (n_ring - 1) * 8)
        assert (ring["dispatches"], ring["max_bytes"]) == (4, n_ring * 8)
        # Recursive doubling: log2(4) = 2 rounds x 4 ranks; ring:
        # (P-1) reduce-scatter + (P-1) allgather rounds x 4 ranks.
        assert trace.total_messages() == 8 + 24

    def test_gather_root_no_longer_a_hotspot(self):
        """Regression (P >= 16): the ring allgather is balanced; the
        legacy gather-to-root + bcast concentrated traffic on rank 0."""
        p = 16

        def prog(comm, legacy):
            x = np.full(64, float(comm.rank))
            return gather_bcast(comm, x) if legacy else comm.allgather(x)

        t_new, t_old = CommTrace(), CommTrace()
        run_spmd(prog, p, False, comm_trace=t_new)
        run_spmd(prog, p, True, comm_trace=t_old)

        new_bytes = [t_new.sent_bytes(r) for r in range(p)]
        old_bytes = [t_old.sent_bytes(r) for r in range(p)]
        # Every rank sends the same volume around the ring.
        assert max(new_bytes) <= 2 * (sum(new_bytes) / p)
        # The legacy schedule's worst rank is the root, and it carries
        # several times the balanced per-rank volume.
        assert old_bytes.index(max(old_bytes)) == 0
        assert max(old_bytes) >= 3 * max(new_bytes)

    def test_dict_payload_bytes_are_honest(self):
        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                comm.send({"block": np.zeros(10), "tag": 3}, 1)
            else:
                comm.recv(0)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.sent_bytes(0) == 80 + 8 + 16

    def test_dataclass_payload_bytes_are_honest(self):
        @dataclasses.dataclass
        class Header:
            data: np.ndarray
            mode: int

        trace = CommTrace()

        def prog(comm):
            if comm.rank == 0:
                comm.send(Header(data=np.zeros(4), mode=1), 1)
            else:
                comm.recv(0)

        run_spmd(prog, 2, comm_trace=trace)
        assert trace.sent_bytes(0) == 32 + 8 + 16


class TestTtmFiberReduceScatter:
    """The TTM hot path moves its staged pieces instead of copying them."""

    GRID = (4, 1, 1)
    X = np.random.default_rng(7).standard_normal((16, 6, 5))
    U = np.random.default_rng(8).standard_normal((16, 8))

    def test_new_path_copies_nothing_and_matches_legacy(self):
        t_new, t_old = CommTrace(), CommTrace()
        X, U, grid = self.X, self.U, self.GRID

        def prog_new(comm, trace):
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X)
            trace.set_context("ttm-rs")
            out = par_ttm_truncate(dt, U, 0)
            trace.set_context(None)
            return np.array(out.local.data, copy=True)

        def prog_old(comm, trace):
            # The pre-dispatch schedule: stage the same pieces, then
            # alltoall + fold with defensive copies on every send.
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X)
            p_n = grid[0]
            r0, r1 = block_range(X.shape[0], p_n, dt.coords[0])
            partial = ttm(dt.local, U[r0:r1, :].astype(dt.dtype), 0,
                          transpose=True)
            fiber = dt.comms.fiber(0)
            pieces = []
            for q in range(p_n):
                q0, q1 = block_range(U.shape[1], p_n, q)
                pieces.append(np.ascontiguousarray(partial.data[q0:q1]))
            trace.set_context("ttm-rs")
            parts = fiber.alltoall(pieces)
            block = parts[0]
            for part in parts[1:]:
                block = block + part
            trace.set_context(None)
            return np.array(block, copy=True)

        res_new = run_spmd(prog_new, 4, t_new, comm_trace=t_new)
        res_old = run_spmd(prog_old, 4, t_old, comm_trace=t_old)
        for r in range(4):
            np.testing.assert_allclose(res_new[r], res_old[r], atol=1e-12)

        # Zero-copy: the rewired path snapshots nothing; the legacy
        # schedule copied every payload it sent (>= 2x reduction in
        # copied bytes, trivially, since the new path copies zero).
        assert t_new.total_copied_bytes("ttm-rs") == 0
        assert t_new.total_moved_bytes("ttm-rs") > 0
        assert t_old.total_copied_bytes("ttm-rs") >= \
            2 * max(t_new.total_copied_bytes("ttm-rs"), 1)
        # Both schedules are bandwidth-optimal: wire volume is equal.
        assert t_new.total_bytes("ttm-rs") == t_old.total_bytes("ttm-rs")
