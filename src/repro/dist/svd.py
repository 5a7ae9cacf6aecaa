"""Parallel mode-``n`` SVD kernels (paper Sec. 3.3, Alg. 5).

Two pipelines, mirroring the sequential drivers:

* :func:`par_tensor_qr_svd` — the paper's numerically accurate path:
  local LQ of the redistributed unfolding slab, butterfly TSQR
  reduction of the transposed triangles, then an SVD of the reduced
  ``I_n x I_n`` triangle (replicated LAPACK, root-plus-broadcast, or
  parallel Jacobi).
* :func:`par_tensor_gram_svd` — the TuckerMPI baseline: replicated
  Gram matrix followed by an eigendecomposition.

Both return ``(U, sigma)`` bitwise identical on every rank.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistributionError
from ..instrument import FlopCounter, PHASE_EVD, PHASE_LQ, PHASE_SVD
from ..linalg.svd import left_svd_of_triangle, svd_from_gram
from ..linalg.tensor_lq import tensor_lq
from ..linalg.qr import gelq
from ..obs.tracer import trace_span
from .dtensor import DistributedTensor
from .gram import par_tensor_gram
from .jacobi import par_jacobi_left_svd
from .redistribute import redistribute_unfolding_to_columns

__all__ = ["par_tensor_qr_svd", "par_tensor_gram_svd"]

_STRATEGIES = ("replicated", "root_bcast")


def _check_strategy(strategy: str) -> None:
    if strategy not in _STRATEGIES:
        raise DistributionError(
            f"unknown SVD strategy {strategy!r}; expected one of {_STRATEGIES}"
        )


def _replicated_solve(comm, strategy, solve):
    """Run ``solve`` redundantly everywhere or once at root + bcast.

    Both strategies yield bitwise-identical results on every rank
    because the input triangle is already replicated.
    """
    if strategy == "root_bcast":
        pair = solve() if comm.rank == 0 else None
        return comm.bcast(pair, root=0)
    return solve()


def par_tensor_qr_svd(
    dt: DistributedTensor,
    n: int,
    *,
    triangle_solver: str = "lapack",
    strategy: str = "replicated",
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and values of the mode-``n`` unfolding via LQ.

    The paper's stable kernel: each rank LQ-factors its column slab of
    the unfolding, the ``L^T`` triangles are reduced with butterfly
    TSQR, and the final triangle's SVD supplies ``(U, sigma)``.
    The local LQ is LAPACK's flat tree; ``triangle_solver`` picks
    ``"lapack"`` (gesvd) or ``"jacobi"`` (parallel one-sided Jacobi)
    for the reduced triangle, and ``strategy`` chooses ``"replicated"``
    (every rank solves redundantly) or ``"root_bcast"`` (rank 0 solves
    and broadcasts).  Collective; results are bitwise replicated.
    """
    from .tsqr import butterfly_tsqr_reduce

    _check_strategy(strategy)
    if triangle_solver not in ("lapack", "jacobi"):
        raise DistributionError(
            f"unknown triangle solver {triangle_solver!r}; "
            "expected 'lapack' or 'jacobi'"
        )
    comm = dt.comm
    rows = dt.global_shape[n]
    dtype = dt.dtype

    with trace_span("lq", phase=PHASE_LQ, mode=n, rows=rows), \
            comm.phase(PHASE_LQ, n):
        tmp = FlopCounter()
        if dt.grid.dims[n] == 1:
            L = tensor_lq(dt.local, n, counter=tmp)
        else:
            slab = redistribute_unfolding_to_columns(dt, n)
            if slab.shape[1] == 0:
                L = np.zeros((rows, 0), dtype=dtype)
            else:
                L = gelq(slab, counter=tmp, mode=n)
        comm.account_flops(tmp.total, dtype)
        if counter is not None:
            counter.merge(tmp)
        # Square upper triangle R = L^T, zero-padded when the local slab
        # had fewer columns than rows (degenerate small blocks).
        R = np.zeros((rows, rows), dtype=dtype)
        R[: L.shape[1], :] = L.T
        R = butterfly_tsqr_reduce(comm, R, counter=counter, mode=n)

    with trace_span("svd", phase=PHASE_SVD, mode=n, rows=rows), \
            comm.phase(PHASE_SVD, n):
        L_final = np.ascontiguousarray(R.T)
        if triangle_solver == "jacobi":
            return par_jacobi_left_svd(comm, L_final, counter=counter, mode=n)
        tmp = FlopCounter()
        U, sigma = _replicated_solve(
            comm,
            strategy,
            lambda: left_svd_of_triangle(L_final, counter=tmp, mode=n),
        )
        comm.account_flops(tmp.total, dtype)
        if counter is not None:
            counter.merge(tmp)
        return U, sigma


def par_tensor_gram_svd(
    dt: DistributedTensor,
    n: int,
    *,
    strategy: str = "replicated",
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular pairs of the mode-``n`` unfolding via the Gram matrix.

    The baseline kernel: replicated ``G = Y_(n) Y_(n)^T`` from
    :func:`par_tensor_gram`, then an eigendecomposition (redundant or
    root-plus-broadcast per ``strategy``).  Fast but squares the
    condition number — singular values below ``sqrt(eps) ||X||`` are
    lost, which is the paper's core accuracy argument.
    """
    _check_strategy(strategy)
    comm = dt.comm
    G = par_tensor_gram(dt, n, counter=counter)
    with trace_span("evd", phase=PHASE_EVD, mode=n, rows=G.shape[0]), \
            comm.phase(PHASE_EVD, n):
        tmp = FlopCounter()
        U, sigma = _replicated_solve(
            comm, strategy, lambda: svd_from_gram(G, counter=tmp, mode=n)
        )
        comm.account_flops(tmp.total, dt.dtype)
        if counter is not None:
            counter.merge(tmp)
        return U, sigma
