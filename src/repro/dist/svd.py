"""Parallel mode-``n`` SVD kernels (paper Sec. 3.3, Alg. 5).

Two pipelines, mirroring the sequential drivers:

* :func:`par_tensor_qr_svd` — the paper's numerically accurate path:
  local LQ of the redistributed unfolding slab, butterfly TSQR
  reduction of the transposed triangles, then every rank's own LAPACK
  SVD of the replicated ``I_n x I_n`` triangle.
* :func:`par_tensor_gram_svd` — the TuckerMPI baseline: replicated
  Gram matrix followed by every rank's own eigendecomposition.

Both return ``(U, sigma)`` bitwise identical on every rank.
"""

from __future__ import annotations

import numpy as np

from ..instrument import FlopCounter, PHASE_EVD, PHASE_LQ, PHASE_SVD
from ..linalg.svd import left_svd_of_triangle, svd_from_gram
from ..linalg.tensor_lq import tensor_lq
from ..linalg.qr import gelq
from ..obs.tracer import trace_span
from .dtensor import DistributedTensor
from .gram import par_tensor_gram
from .redistribute import redistribute_unfolding_to_columns

__all__ = ["par_tensor_qr_svd", "par_tensor_gram_svd"]


def _reduced_triangle(
    dt: DistributedTensor, n: int, counter: FlopCounter | None
) -> np.ndarray:
    """The ``I_n x I_n`` lower triangle ``L`` with ``L L^T = Y_(n) Y_(n)^T``.

    Each rank LQ-factors its column slab of the mode-``n`` unfolding
    and the ``L^T`` triangles are reduced with butterfly TSQR, so the
    result is bitwise replicated.  Collective.
    """
    from .tsqr import butterfly_tsqr_reduce

    rows = dt.global_shape[n]
    dtype = dt.dtype

    with trace_span("lq", phase=PHASE_LQ, mode=n, rows=rows):
        if dt.grid.dims[n] == 1:
            L = tensor_lq(dt.local, n, counter=counter)
        else:
            slab = redistribute_unfolding_to_columns(dt, n)
            if slab.shape[1] == 0:
                L = np.zeros((rows, 0), dtype=dtype)
            else:
                L = gelq(slab, counter=counter, mode=n)
        # Square upper triangle R = L^T, zero-padded when the local slab
        # had fewer columns than rows (degenerate small blocks).
        R = np.zeros((rows, rows), dtype=dtype)
        R[: L.shape[1], :] = L.T
        R = butterfly_tsqr_reduce(dt.comm, R, counter=counter, mode=n)
    return np.ascontiguousarray(R.T)


def par_tensor_qr_svd(
    dt: DistributedTensor,
    n: int,
    *,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and values of the mode-``n`` unfolding via LQ.

    The paper's stable kernel: each rank LQ-factors its column slab of
    the unfolding (LAPACK's flat tree), the ``L^T`` triangles are
    reduced with butterfly TSQR, and every rank's own ``gesvd`` of the
    final triangle supplies ``(U, sigma)``.  Collective; results are
    bitwise replicated.
    """
    L = _reduced_triangle(dt, n, counter)
    with trace_span("svd", phase=PHASE_SVD, mode=n, rows=L.shape[0]):
        return left_svd_of_triangle(L, counter=counter, mode=n)


def par_tensor_gram_svd(
    dt: DistributedTensor,
    n: int,
    *,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular pairs of the mode-``n`` unfolding via the Gram matrix.

    The baseline kernel: replicated ``G = Y_(n) Y_(n)^T`` from
    :func:`par_tensor_gram`, then every rank's own eigendecomposition.
    Fast but squares the condition number — singular values below
    ``sqrt(eps) ||X||`` are lost, which is the paper's core accuracy
    argument.
    """
    G = par_tensor_gram(dt, n, counter=counter)
    with trace_span("evd", phase=PHASE_EVD, mode=n, rows=G.shape[0]):
        return svd_from_gram(G, counter=counter, mode=n)
