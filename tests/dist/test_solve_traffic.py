"""The collective schedules a parallel ST-HOSVD solve runs.

On the benchmark's parallel shape — (48, 48, 33, 48) on the default
P = 2 grid (1, 1, 1, 2) — a solve dispatches three schedules whatever the
method, precision or backend: the recursive-doubling allreduce of the
Gram matrix, the pairwise all-to-all of the redistribution and the ring
reduce-scatter of the TTM.  A schedule outside this set would need a
workload that dispatches it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sthosvd import sthosvd
from repro.data.applications import hcci_surrogate
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import CommTrace, run_spmd

SHAPE = (48, 48, 33, 48)
SOLVE_SCHEDULES = {
    "allreduce:recursive_doubling",
    "alltoall:pairwise",
    "reduce_scatter:ring",
}


@pytest.fixture(scope="module")
def tensor() -> np.ndarray:
    return hcci_surrogate(SHAPE, seed=1).data


def _solve(comm, xw, method):
    grid = ProcessorGrid.for_size(comm.size, xw.ndim)
    dt = DistributedTensor.from_full(GridComms(comm, grid), xw)
    sthosvd(dt, tol=1e-4, method=method)
    return grid.dims


@pytest.mark.parametrize("backend", ["threads", "sockets"])
@pytest.mark.parametrize("method,dtype", [("gram", np.float64),
                                          ("qr", np.float32)])
def test_a_solve_dispatches_three_schedules(tensor, backend, method, dtype):
    xw = np.asfortranarray(tensor, dtype=dtype)
    trace = CommTrace()
    res = run_spmd(_solve, 2, xw, method, backend=backend, comm_trace=trace,
                   recv_timeout=60.0)
    assert res[0] == (1, 1, 1, 2)
    schedules = set(trace.schedules())
    assert schedules <= SOLVE_SCHEDULES, schedules
    assert {"alltoall:pairwise", "reduce_scatter:ring"} <= schedules
