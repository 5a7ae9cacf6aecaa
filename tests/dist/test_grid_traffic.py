"""What the default grid puts on the wire, as counts.

A seeded HCCI surrogate through ``sthosvd_parallel`` on ``threads``:
under ``ProcessorGrid.for_size`` the modes processed before the first
distributed one send no ``alltoall`` / ``reduce_scatter`` payload at all
(only the butterfly's or allreduce's ``I_n x I_n`` triangle), so the
bulk collectives move a tensor the earlier modes have already
truncated.  The mirrored grid distributes those early modes and ships
the tensor at full size; byte counts repeat exactly, so they are
asserted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd_parallel
from repro.data import hcci_surrogate
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import CommTrace, run_spmd
from repro.obs import Tracer

SHAPE = (24, 24, 12, 24)
TOL = 1e-4
BULK = ("comm.alltoall", "comm.reduce_scatter")


def _solve(X, grid, method):
    """(total bytes sent, bulk-collective bytes per mode, ranks, rel. error).

    The total includes the grid splits, the norm's allreduce and the
    final core gather: the same few bytes under either grid.
    """
    trace, tracer = CommTrace(), Tracer()

    def prog(comm):
        dt = DistributedTensor.from_full(GridComms(comm, grid), X.data)
        res = sthosvd_parallel(dt, tol=TOL, method=method)
        return res.ranks, res.to_tucker().rel_error(X)

    values = run_spmd(prog, grid.size, backend="threads",
                      comm_trace=trace, tracer=tracer).values
    assert all(v == values[0] for v in values[1:])
    bulk = [0] * X.ndim
    for span in tracer.spans:
        if span.name in BULK:
            bulk[span.mode] += span.attrs["bytes_sent"]
    return trace.total_bytes(), bulk, *values[0]


# Measured total-byte ratios, reversed grid over default: 8.7x at P = 2;
# 3.7x at P = 4, where two modes are distributed and the second-to-last
# (12 -> 6) is the one this surrogate truncates least.
@pytest.mark.parametrize("nprocs,fewer", [(2, 5), (4, 3)])
@pytest.mark.parametrize("method,dtype", [("qr", np.float32), ("gram", np.float64)])
def test_bulk_collectives_run_after_truncation(method, dtype, nprocs, fewer):
    X = hcci_surrogate(SHAPE, seed=11, dtype=dtype)
    grid = ProcessorGrid.for_size(nprocs, X.ndim)
    reversed_grid = ProcessorGrid(grid.dims[::-1])
    first = next(n for n, p in enumerate(grid.dims) if p > 1)
    assert first > 0

    total, bulk, ranks, err = _solve(X, grid, method)
    rev_total, rev_bulk, rev_ranks, rev_err = _solve(X, reversed_grid, method)

    assert bulk[:first] == [0] * first and all(bulk[first:])
    assert rev_bulk[0] > 0
    assert fewer * total <= rev_total
    assert ranks == rev_ranks
    assert err <= TOL and rev_err <= TOL
    # Counts, not times: a second solve sends exactly the same bytes.
    assert _solve(X, grid, method)[:2] == (total, bulk)
