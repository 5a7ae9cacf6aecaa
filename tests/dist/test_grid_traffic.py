"""What the default grid puts on the wire, as counts.

A seeded HCCI surrogate through ``sthosvd_parallel`` on ``threads``:
under ``ProcessorGrid.for_size`` the modes processed before the first
distributed one send no ``alltoall`` / ``reduce_scatter`` payload at all
(only the butterfly's or allreduce's ``I_n x I_n`` triangle), so the
bulk collectives move a tensor the earlier modes have already
truncated.  The mirrored grid distributes those early modes and ships
the tensor at full size; byte counts repeat exactly, so they are
asserted.  So do message counts: a solve is exactly the norm's
allreduce short of the schedule that opened with ``dt.norm_squared()``.
"""

from __future__ import annotations

from collections import Counter

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


def _solve_traffic(X, grid, method, norm_pass):
    """(messages, bytes, collective calls by name) of the solve alone."""
    trace, tracer = CommTrace(), Tracer()

    def prog(comm):
        dt = DistributedTensor.from_full(GridComms(comm, grid), X.data)
        trace.set_context("solve")
        if norm_pass:
            dt.norm_squared()
        sthosvd_parallel(dt, tol=TOL, method=method)
        trace.set_context(None)

    run_spmd(prog, grid.size, backend="threads", comm_trace=trace, tracer=tracer)
    calls = Counter(s.name for s in tracer.spans if s.name.startswith("comm."))
    return trace.total_messages("solve"), trace.total_bytes("solve"), calls


@pytest.mark.parametrize("nprocs,messages", [(2, 12), (4, 48)])
@pytest.mark.parametrize("method,dtype", [("qr", np.float32), ("gram", np.float64)])
def test_a_solve_sends_no_norm(method, dtype, nprocs, messages):
    """``||X||`` is read off mode 0's replicated spectrum: the only
    allreduces left are Gram's own (one per rank and mode), QR has none,
    and the old schedule — the same solve after an explicit
    ``dt.norm_squared()`` — is one float64 allreduce longer."""
    X = hcci_surrogate(SHAPE, seed=11, dtype=dtype)
    grid = ProcessorGrid.for_size(nprocs, X.ndim)
    msgs, nbytes, calls = _solve_traffic(X, grid, method, norm_pass=False)
    assert msgs == messages
    assert calls["comm.allreduce"] == (nprocs * X.ndim if method == "gram" else 0)

    old_msgs, old_nbytes, old_calls = _solve_traffic(X, grid, method, norm_pass=True)
    rounds = nprocs.bit_length() - 1  # recursive doubling
    assert old_calls["comm.allreduce"] - calls["comm.allreduce"] == nprocs
    assert old_msgs - msgs == nprocs * rounds
    assert old_nbytes - nbytes == 8 * nprocs * rounds
