"""Theorem 1's eps floor for QR-SVD, asserted on every solver path.

``|sigma_i~ - sigma_i| = O(eps ||A||)`` for every ``i`` (paper eq. 1)
must hold for the streaming TensorLQ -> triangle SVD in both
precisions, whichever arm feeds it: the kernels directly, and
``sthosvd`` on a dense, a distributed (butterfly TSQR, replicated
bit for bit) and an out-of-core tensor.  The chunk width is shrunk so
that these small tensors take several ``tpqrt`` folds per mode, and
Gram-SVD is shown to break the same bound by orders of magnitude.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import geometric_spectrum, matrix_with_spectrum, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.linalg import left_svd_of_triangle, tensor_lq
from repro.mpi import run_spmd
from repro.tensor.unfold import fold

SHAPE = (24, 20, 22)
# Measured 0.3-4.5 on all paths below; Gram-SVD sits at 1e3 (float32)
# and 1e7 (float64) in the same units.
FLOOR_CONSTANT = 50.0
CASES = [(n, dtype) for n in range(3) for dtype in (np.float32, np.float64)]


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(sys.modules["repro.linalg.qr"], "_CHUNK_COLS", 64)


def _problem(n, dtype):
    """Tensor whose mode-``n`` unfolding has a known geometric spectrum."""
    rows = SHAPE[n]
    sigma = geometric_spectrum(rows, 1.0, 1e-10)
    A = matrix_with_spectrum(rows, int(np.prod(SHAPE)) // rows, sigma, rng=5 + n)
    order = (n,) + tuple(m for m in range(len(SHAPE)) if m != n)
    return fold(A, n, SHAPE).astype(dtype), sigma, order


def _error_in_eps(computed, sigma, dtype) -> float:
    err = np.abs(np.asarray(computed, dtype=np.float64) - sigma).max()
    return float(err / (np.finfo(dtype).eps * sigma[0]))


@pytest.mark.parametrize("n,dtype", CASES)
def test_kernels_and_sequential_driver(n, dtype):
    X, sigma, order = _problem(n, dtype)
    _, s = left_svd_of_triangle(tensor_lq(X, n))
    assert _error_in_eps(s, sigma, dtype) < FLOOR_CONSTANT
    qr = sthosvd(X, ranks=SHAPE, method="qr", mode_order=order)
    assert _error_in_eps(qr.sigmas[n], sigma, dtype) < FLOOR_CONSTANT
    gram = sthosvd(X, ranks=SHAPE, method="gram", mode_order=order)
    assert _error_in_eps(gram.sigmas[n], sigma, dtype) > 10 * FLOOR_CONSTANT


@pytest.mark.parametrize("nprocs", [2, 3, 4])
@pytest.mark.parametrize("n,dtype", CASES)
def test_parallel_driver(n, dtype, nprocs):
    X, sigma, order = _problem(n, dtype)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid.for_size(comm.size, len(SHAPE)))
        dt = DistributedTensor.from_full(comms, X.data)
        res = sthosvd(dt, ranks=SHAPE, method="qr", mode_order=order)
        return res.sigmas, res.factors

    values = run_spmd(prog, nprocs, backend="threads").values
    sigmas0, factors0 = values[0]
    assert _error_in_eps(sigmas0[n], sigma, dtype) < FLOOR_CONSTANT
    for sigmas, factors in values[1:]:
        for m in range(len(SHAPE)):
            assert sigmas[m].tobytes() == sigmas0[m].tobytes()
            assert factors[m].tobytes() == factors0[m].tobytes()


@pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parallel_driver_leading_mode_distributed(dtype, grid):
    """Forward order on a grid ``for_size`` no longer builds: modes 0
    (and 1) are distributed and meet Alg. 3's all-to-all and the TTM's
    reduce-scatter at full size.  Gram-SVD breaks the same bound."""
    X, sigma, _ = _problem(0, dtype)

    def prog(comm):
        dt = DistributedTensor.from_full(GridComms(comm, ProcessorGrid(grid)), X.data)
        qr = sthosvd(dt, ranks=SHAPE, method="qr")
        gram = sthosvd(dt, ranks=SHAPE, method="gram")
        return qr.sigmas, qr.factors, gram.sigmas

    values = run_spmd(prog, int(np.prod(grid)), backend="threads").values
    sigmas0, factors0, gram0 = values[0]
    assert _error_in_eps(sigmas0[0], sigma, dtype) < FLOOR_CONSTANT
    assert _error_in_eps(gram0[0], sigma, dtype) > 10 * FLOOR_CONSTANT
    for sigmas, factors, _ in values[1:]:
        for m in range(len(SHAPE)):
            assert sigmas[m].tobytes() == sigmas0[m].tobytes()
            assert factors[m].tobytes() == factors0[m].tobytes()


@pytest.mark.parametrize("n,dtype", CASES)
def test_out_of_core_driver(n, dtype, tmp_path):
    X, sigma, order = _problem(n, dtype)
    path = str(tmp_path / "x.bin")
    save_raw(X, path)
    res = sthosvd(OutOfCoreTensor(path, SHAPE, dtype), ranks=SHAPE, method="qr",
                  mode_order=order, max_elements=700)
    assert res.tucker.core.dtype == dtype
    assert _error_in_eps(res.sigmas[n], sigma, dtype) < FLOOR_CONSTANT


@pytest.mark.parametrize("n,dtype", CASES)
def test_recovered_run_keeps_the_floor(n, dtype):
    """A rank dies inside the first mode (P = 4 -> 3); the survivors
    recover from the entry checkpoint and recompute that mode's SVD on
    the shrunk world.  Theorem 1 must hold for what they compute."""
    _recovered_run(n, dtype, _problem(n, dtype)[2])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recovered_backward_run_keeps_the_floor(dtype):
    """The same under ``mode_order="backward"``: the last mode goes
    first, on a grid (2x2x1, then 3x1x1) that keeps it undistributed."""
    _recovered_run(len(SHAPE) - 1, dtype, "backward")


def _recovered_run(n, dtype, order):
    from repro.core import sthosvd_fault_tolerant
    from repro.faults import CrashRule, FaultPlan

    X, sigma, _ = _problem(n, dtype)

    def prog(comm):
        res = sthosvd_fault_tolerant(
            comm, X.data if comm.rank == 0 else None,
            ranks=SHAPE, method="qr", mode_order=order,
        )
        return res.comm.size, res.events, res.result.sigmas, res.result.factors

    plan = FaultPlan(seed=1, crashes=(CrashRule(rank=2, at_op=12),))
    out = run_spmd(prog, 4, backend="threads", faults=plan, resilience=True)
    assert out.failed_ranks == [2]
    done = [v for v in out.values if v is not None]
    assert len(done) == 3
    size, events, sigmas0, factors0 = done[0]
    assert size == 3
    (kind, detail), = events
    assert kind == "rank_failure" and detail["resumed_step"] == 0
    assert sigmas0[n].dtype == dtype
    assert _error_in_eps(sigmas0[n], sigma, dtype) < FLOOR_CONSTANT
    for _, _, sigmas, factors in done[1:]:
        for m in range(len(SHAPE)):
            assert sigmas[m].tobytes() == sigmas0[m].tobytes()
            assert factors[m].tobytes() == factors0[m].tobytes()
