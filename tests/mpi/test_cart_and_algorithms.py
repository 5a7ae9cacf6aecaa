"""Collective schedules against their definitions and each other."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8]


def scatter_allgather(comm, payload, root):
    """van de Geijn's long-message broadcast composed of public
    collectives: the root scatters 1-D slices, every rank allgathers."""
    pieces = np.array_split(payload, comm.size) if comm.rank == root else None
    return np.concatenate(comm.allgather(comm.scatter(pieces, root=root)))


@pytest.mark.parametrize("p", SIZES)
class TestAlternativeCollectives:
    def test_recursive_doubling_allreduce(self, p):
        def prog(comm):
            v = np.array([2.0 ** comm.rank, comm.rank])
            out = comm.allreduce(v, algorithm="recursive_doubling")
            ref = comm.allreduce(v, algorithm="tree")
            return np.allclose(out, ref) and out[0] == 2.0**comm.size - 1

        assert all(run_spmd(prog, p).values)

    def test_ring_allgather(self, p):
        def prog(comm):
            out = comm.allgather(np.array([comm.rank * 3.0]))
            return [float(x[0]) for x in out]

        for vals in run_spmd(prog, p):
            assert vals == [r * 3.0 for r in range(p)]

    def test_scatter_allgather_bcast(self, p):
        """The binomial bcast delivers what scatter + allgather does."""
        def prog(comm):
            root = comm.size - 1
            payload = np.arange(17.0) if comm.rank == root else None
            composed = scatter_allgather(comm, payload, root).tolist()
            return comm.bcast(payload, root=root).tolist(), composed

        for got, composed in run_spmd(prog, p):
            assert got == composed == list(map(float, range(17)))

    def test_ring_reduce_scatter(self, p):
        def prog(comm):
            vals = [np.array([comm.rank + 100.0 * q]) for q in range(comm.size)]
            out = comm.reduce_scatter(vals)
            ref = comm.reduce_scatter([v.tolist() for v in vals], op=np.add)
            return float(out[0]), float(ref[0])

        for r, (out, ref) in enumerate(run_spmd(prog, p)):
            assert out == ref == sum(q + 100.0 * r for q in range(p))


class TestAlgorithmEdgeCases:
    def test_bcast_payload_shorter_than_ranks(self):
        """Fewer elements than ranks: some scatter pieces are empty."""

        def prog(comm):
            payload = np.array([1.0, 2.0]) if comm.rank == 0 else None
            composed = scatter_allgather(comm, payload, 0).tolist()
            return comm.bcast(payload, root=0).tolist(), composed

        for got, composed in run_spmd(prog, 5):
            assert got == composed == [1.0, 2.0]

    def test_reduce_scatter_wrong_count(self):
        def prog(comm):
            comm.reduce_scatter([np.zeros(1)] * (comm.size + 1))

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 3)

    def test_custom_op_max(self):
        def prog(comm):
            v = np.array([float(comm.rank)])
            out = comm.allreduce(v, op=np.maximum, algorithm="recursive_doubling")
            return float(out[0])

        assert all(v == 4.0 for v in run_spmd(prog, 5).values)
