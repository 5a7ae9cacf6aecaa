"""`dist` stages no piece in a layout other than the one it is produced in.

Structure tests on the ``threads`` backend: what the redistribution and
the truncating TTM hand to their fiber collective, what they return, and
what the whole parallel solve copies.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.core.sthosvd import sthosvd
from repro.dist import (
    DistributedTensor,
    GridComms,
    ProcessorGrid,
    par_ttm_truncate,
    redistribute_unfolding_to_columns,
)
from repro.dist import block_range
from repro.mpi import CommTrace, run_spmd
from repro.tensor import DenseTensor
from repro.tensor.dense import sum_of_squares
from repro.tensor.ttm import ttm

# (global shape, grid): every mode split for P in {2, 3, 4}, and modes
# whose extent is smaller than P_n (an empty local block on some rank).
CASES = [
    ((6, 5, 4), (2, 1, 1)),
    ((6, 5, 4), (1, 2, 1)),
    ((6, 5, 4), (1, 1, 2)),
    ((7, 5, 6), (3, 1, 1)),
    ((7, 5, 6), (1, 3, 1)),
    ((7, 5, 6), (1, 1, 3)),
    ((6, 5, 4, 3), (2, 2, 1, 1)),
    ((6, 5, 4), (1, 2, 2)),
    ((9, 5, 4), (4, 1, 1)),
    ((2, 5, 4), (3, 1, 1)),
    ((5, 3, 4), (1, 4, 1)),
    ((5, 4, 2), (1, 1, 4)),
]


def _global(shape, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(11).standard_normal(shape).astype(dtype)


def _spy(fiber, op: str, seen: list) -> None:
    """Record the pieces (and ``copy=``) handed to ``fiber.<op>``."""
    real = getattr(fiber, op)

    def wrapper(pieces, *args, **kwargs):
        seen.append((op, [(p.shape, p.flags.c_contiguous, p.flags.f_contiguous)
                          for p in pieces], kwargs.get("copy", True)))
        return real(pieces, *args, **kwargs)

    setattr(fiber, op, wrapper)


@pytest.mark.parametrize("shape,grid", CASES)
def test_redistributed_slab_is_the_global_column_range(shape, grid):
    X = _global(shape)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid))
        dt = DistributedTensor.from_full(comms, X)
        out = []
        for n in range(len(shape)):
            seen = []
            _spy(comms.fiber(n), "alltoall", seen)
            slab = redistribute_unfolding_to_columns(dt, n)
            # The fiber's ranks share every other mode's block range and
            # tile mode n: the slab is a column range of that sub-tensor.
            idx = list(dt.local_slices())
            idx[n] = slice(None)
            full = DenseTensor(X[tuple(idx)]).unfold(n)
            c0, c1 = block_range(full.shape[1], grid[n], dt.coords[n])
            out.append((
                np.array_equal(slab, full[:, c0:c1]),
                slab.flags.c_contiguous or slab.flags.f_contiguous,
                grid[n] > 1 and np.shares_memory(slab, dt.local.data),
                seen,
            ))
        return out

    for per_rank in run_spmd(prog, int(np.prod(grid)), recv_timeout=20):
        for n, (equal, contiguous, aliased, seen) in enumerate(per_rank):
            assert equal and contiguous and not aliased
            assert len(seen) == (grid[n] > 1)
            for _, pieces, copy in seen:
                assert copy is False
                assert len(pieces) == grid[n]
                # A column range of the Fortran-ordered unfolding goes
                # as it is; the row-major last mode's is compacted.
                last = n == len(shape) - 1
                assert all(c if last else f for _, c, f in pieces)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,grid", CASES)
def test_truncated_block_is_born_fortran_contiguous(shape, grid, dtype):
    X = _global(shape, dtype)
    rng = np.random.default_rng(12)
    factors = [rng.standard_normal((s, max(s - 2, 1))) for s in shape]

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid))
        dt = DistributedTensor.from_full(comms, X)
        out = []
        for n, U in enumerate(factors):
            seen = []
            _spy(comms.fiber(n), "reduce_scatter", seen)
            new = par_ttm_truncate(dt, U, n)
            data = new.local.data
            out.append((
                new.global_shape,
                new.gather().data,
                data.flags.f_contiguous and data.flags.writeable,
                np.shares_memory(data, dt.local.data) or np.shares_memory(data, U),
                seen,
            ))
        return out

    for per_rank in run_spmd(prog, int(np.prod(grid)), recv_timeout=20):
        for n, (gshape, full, fortran, aliased, seen) in enumerate(per_rank):
            expect = ttm(DenseTensor(X), factors[n], n, transpose=True).data
            assert gshape == expect.shape
            np.testing.assert_allclose(full, expect, rtol=1e-4 if dtype == np.float32 else 1e-11,
                                       atol=1e-4 if dtype == np.float32 else 1e-11)
            assert fortran and not aliased
            assert len(seen) == (grid[n] > 1)
            for _, pieces, copy in seen:
                assert copy is False
                assert all(f for _, _, f in pieces)


@pytest.mark.parametrize("method", ["gram", "qr"])
@pytest.mark.parametrize("grid", [(2, 1, 1), (1, 2, 2)])
def test_a_parallel_solve_copies_no_piece_of_the_tensor(method, grid):
    X = _global((12, 10, 8))
    trace = CommTrace()

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid))
        dt = DistributedTensor.from_full(comms, X)
        return sthosvd(dt, ranks=(5, 4, 3), method=method).ranks

    nprocs = int(np.prod(grid))
    run_spmd(prog, nprocs, comm_trace=trace, recv_timeout=20)
    assert trace.total_moved_bytes() > 0
    # Nothing is snapshotted on either path: the butterfly moves its one
    # I_n x I_n triangle per rank and round like every other piece.
    triangles = nprocs * (nprocs.bit_length() - 1) * sum(s * s * 8 for s in X.shape)
    assert trace.total_moved_bytes() >= (triangles if method == "qr" else 0)
    assert trace.total_copied_bytes() == 0


@pytest.mark.parametrize("method", ["gram", "qr"])
def test_sanitized_solve_accepts_the_view_pieces(method):
    X = _global((12, 10, 8), np.float32)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid((2, 1, 2)))
        dt = DistributedTensor.from_full(comms, X)
        res = sthosvd(dt, ranks=(5, 4, 3), method=method)
        # The input block was only ever sent as views: still writable.
        return res.ranks, dt.local.data.flags.writeable

    for ranks, writable in run_spmd(prog, 4, sanitize=True, recv_timeout=20):
        assert ranks == (5, 4, 3) and writable


class TestNormSquared:
    """The distributed norm reads the float32 block as it lies (one BLAS
    ``dsdot``): no float64 copy of the block, not even a slice of one."""

    def test_float32_block_is_summed_in_place_in_float64(self):
        X = _global((64, 50, 160), np.float32)
        exact = math.fsum((X.astype(np.float64).ravel() ** 2).tolist())

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 1, 1)))
            dt = DistributedTensor.from_full(comms, X)
            dt.norm_squared()
            comm.barrier()
            peak = None
            if comm.rank == 0:
                gc.collect()
                tracemalloc.start()
            comm.barrier()
            value = dt.norm_squared()
            comm.barrier()
            if comm.rank == 0:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return value, peak

        (v0, peak), (v1, _) = run_spmd(prog, 2, recv_timeout=20)
        assert v0 == v1
        # Far below anything a float32 accumulation could promise on half
        # a million terms; the bound leaves room for a BLAS whose dsdot
        # adds small groups of products in float32 first (OpenBLAS x86-64:
        # 1e-10 here), which the widened sum (1e-15) did not need.
        assert abs(v0 - exact) <= 1e-8 * exact
        # Where the two ranks' float64 copies of their blocks were
        # X.size * 8 bytes and the sliced widening 4 slices of 256 KiB.
        assert peak <= 1 << 16

    def test_other_inputs_take_the_numpy_path(self, monkeypatch):
        from repro.linalg import _capi

        x = np.random.default_rng(3).standard_normal(70_001).astype(np.float32)
        x64 = x.astype(np.float64)
        exact = math.fsum((x64 ** 2).tolist())
        assert abs(sum_of_squares(x) - exact) <= 1e-8 * exact
        assert sum_of_squares(np.empty(0, dtype=np.float32)) == 0.0

        def no_blas(*args):
            raise AssertionError("dsdot reached")

        monkeypatch.setitem(_capi.ROUTINES, "dsdot", no_blas)
        strided_exact = math.fsum((x64[::2] ** 2).tolist())
        assert abs(sum_of_squares(x[::2]) - strided_exact) <= 1e-15 * strided_exact
        assert sum_of_squares(x64) == float(np.dot(x64, x64))
        assert sum_of_squares(x.astype(np.float16)[:100]) > 0
        assert sum_of_squares(np.empty(0, dtype=np.float64)) == 0.0

    def test_float64_is_the_same_dot_as_before(self):
        X = _global((9, 8, 7))

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((1, 2, 1)))
            dt = DistributedTensor.from_full(comms, X)
            flat = dt.local.flat_view()
            return dt.norm_squared(), float(np.dot(flat, flat))

        (v0, mine0), (v1, mine1) = run_spmd(prog, 2, recv_timeout=20)
        assert v0 == v1 == mine0 + mine1
        t = DenseTensor(X)
        assert t.norm() == float(np.linalg.norm(t.flat_view()))
        # The sum itself, not its square root squared again.
        assert t.norm_squared() == float(np.dot(t.flat_view(), t.flat_view()))
        assert t.norm() == float(np.sqrt(t.norm_squared()))
