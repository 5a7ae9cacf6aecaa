"""A processor grid is carved in one rendezvous; a gather writes every element.

``GridComms`` builds every mode fiber with a single split rendezvous —
one master round trip on the process backends instead of one per mode —
and the fibers are the ones the mode-by-mode construction gives: same
members, rank and size, with distinct communicator ids that increase
with the mode.  ``DistributedTensor.gather`` allocates its output
without zero-filling it, which is only correct because the blocks tile
the tensor: an output pre-filled with sentinels must come back with none
left.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.dist import dtensor as dtensor_module
from repro.mpi import run_spmd
from repro.mpi.context import SpmdContext
from repro.mpi.transport.worldproxy import WorkerContext

BACKENDS = ["threads", "procs", "sockets"]
GRIDS = [(1, 1, 1, 2), (2, 2), (2, 1, 2)]


@pytest.fixture
def rendezvous_log(monkeypatch) -> list:
    """World ranks, one entry per split rendezvous, on every backend.

    The process backends fork after the patch, so their workers count
    their own RPCs and ship the count back in the rank's return value.
    """
    log: list = []
    for cls in (SpmdContext, WorkerContext):
        real = cls.split_rendezvous

        def counted(self, *args, _real=real):
            log.append(args[-1])
            return _real(self, *args)

        monkeypatch.setattr(cls, "split_rendezvous", counted)
    return log


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
def test_grid_comms_is_one_rendezvous_with_the_n_split_fibers(
        backend, dims, rendezvous_log):
    grid = ProcessorGrid(dims)

    def prog(comm):
        before = rendezvous_log.count(comm.rank)
        comms = GridComms(comm, grid)
        rendezvous = rendezvous_log.count(comm.rank) - before
        fibers = [comms.fiber(n) for n in range(grid.ndim)]
        one_by_one = [comms.cart.fiber(n).comm for n in range(grid.ndim)]
        describe = [[(tuple(f._members), f.rank, f.size) for f in fs]
                    for fs in (fibers, one_by_one)]
        return (rendezvous, describe, [f.comm_id for f in fibers],
                comms.coords)

    values = run_spmd(prog, grid.size, backend=backend, recv_timeout=30).values
    ids_by_members = {}
    for rendezvous, (fibers, one_by_one), ids, coords in values:
        assert rendezvous == 1
        assert fibers == one_by_one
        for n, (_, rank, size) in enumerate(fibers):
            assert (rank, size) == (coords[n], dims[n])
        assert ids == sorted(set(ids)) and ids[0] > 0
        for (members, _, _), comm_id in zip(fibers, ids):
            ids_by_members.setdefault(comm_id, set()).add(members)
    # One id per fiber: every rank of a fiber holds its id, no other does.
    assert all(len(members) == 1 for members in ids_by_members.values())
    fibers_per_mode = sum(grid.size // p for p in dims)
    assert len(ids_by_members) == fibers_per_mode


@pytest.mark.parametrize("shape,dims", [
    ((6, 5, 4, 6), (1, 1, 1, 2)),
    ((6, 5), (2, 2)),
    ((7, 5, 3), (3, 1, 1)),
    ((5, 7, 4), (2, 1, 2)),
    ((2, 5, 4), (3, 1, 1)),
])
def test_gather_leaves_no_sentinel(shape, dims, monkeypatch):
    """The uneven cases have blocks that differ by one along a mode, and
    an empty one where the extent is smaller than ``P_n``."""
    X = np.random.default_rng(5).standard_normal(shape)

    class Sentinels:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, dtype=None, order="C"):
            return np.full(shape, np.nan, dtype=dtype, order=order)

    monkeypatch.setattr(dtensor_module, "np", Sentinels())

    def prog(comm):
        dt = DistributedTensor.from_full(GridComms(comm, ProcessorGrid(dims)), X)
        return dt.gather().data

    for full in run_spmd(prog, int(np.prod(dims)), recv_timeout=30).values:
        assert not np.isnan(full).any()
        assert np.array_equal(full, X) and full.flags.f_contiguous
