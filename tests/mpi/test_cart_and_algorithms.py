"""Alternative collective algorithm tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import (
    allgather_ring,
    allreduce_recursive_doubling,
    bcast_scatter_allgather,
    reduce_scatter_ring,
    run_spmd,
)

SIZES = [1, 2, 3, 4, 5, 7, 8]


@pytest.mark.parametrize("p", SIZES)
class TestAlternativeCollectives:
    def test_recursive_doubling_allreduce(self, p):
        def prog(comm):
            v = np.array([2.0 ** comm.rank, comm.rank])
            out = allreduce_recursive_doubling(comm, v)
            ref = comm.allreduce(v)
            return np.allclose(out, ref) and out[0] == 2.0**comm.size - 1

        assert all(run_spmd(prog, p).values)

    def test_ring_allgather(self, p):
        def prog(comm):
            out = allgather_ring(comm, np.array([comm.rank * 3.0]))
            return [float(x[0]) for x in out]

        for vals in run_spmd(prog, p):
            assert vals == [r * 3.0 for r in range(p)]

    def test_scatter_allgather_bcast(self, p):
        def prog(comm):
            root = comm.size - 1
            payload = np.arange(17.0) if comm.rank == root else None
            return bcast_scatter_allgather(comm, payload, root=root).tolist()

        for vals in run_spmd(prog, p):
            assert vals == list(map(float, range(17)))

    def test_ring_reduce_scatter(self, p):
        def prog(comm):
            vals = [np.array([comm.rank + 100.0 * q]) for q in range(comm.size)]
            out = reduce_scatter_ring(comm, vals)
            ref = comm.reduce_scatter(vals)
            return float(out[0]), float(ref[0])

        for r, (out, ref) in enumerate(run_spmd(prog, p)):
            assert out == ref == sum(q + 100.0 * r for q in range(p))


class TestAlgorithmEdgeCases:
    def test_bcast_payload_shorter_than_ranks(self):
        """Fewer elements than ranks: some scatter pieces are empty."""

        def prog(comm):
            payload = np.array([1.0, 2.0]) if comm.rank == 0 else None
            return bcast_scatter_allgather(comm, payload, root=0).tolist()

        for vals in run_spmd(prog, 5):
            assert vals == [1.0, 2.0]

    def test_bcast_requires_1d(self):
        def prog(comm):
            bcast_scatter_allgather(comm, np.zeros((2, 2)), root=0)

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 2)

    def test_reduce_scatter_wrong_count(self):
        def prog(comm):
            reduce_scatter_ring(comm, [np.zeros(1)] * (comm.size + 1))

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 3)

    def test_custom_op_max(self):
        def prog(comm):
            v = np.array([float(comm.rank)])
            return float(allreduce_recursive_doubling(comm, v, op=np.maximum)[0])

        assert all(v == 4.0 for v in run_spmd(prog, 5).values)
