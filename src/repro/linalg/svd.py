"""The two SVD algorithms under study: Gram-SVD and QR-SVD (Secs. 2.3, 3.1).

Both compute only what ST-HOSVD needs — singular values and **left**
singular vectors of a short-fat matrix (or tensor unfolding):

* :func:`gram_svd` — eigendecomposition of ``A A^T`` (TuckerMPI's
  method): half the flops, but squares the condition number, so singular
  values below ``sqrt(eps) * ||A||`` are roundoff noise.
* :func:`qr_svd` — LQ preprocessing then SVD of the small triangular
  factor (R-bidiagonalization): backward stable, resolving values down
  to ``eps * ||A||`` at ~2x the flops.

Negative Gram eigenvalues (which appear exactly when accuracy is lost)
are handled the way the paper's experiment does: take the square root of
the absolute value, then sort descending.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..faults._hook import current_injector
from ..instrument import FlopCounter, PHASE_SVD, PHASE_EVD
from ..obs._hook import trace_span
from ..tensor.dense import DenseTensor
from . import _capi
from .flops import eigh_flops, svd_flops
from .gram import gram_matrix, tensor_gram
from .qr import gelq
from .tensor_lq import tensor_lq

__all__ = [
    "svd_from_gram",
    "left_svd_of_triangle",
    "gram_svd",
    "qr_svd",
    "tensor_gram_svd",
    "tensor_qr_svd",
]


def svd_from_gram(
    G: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and values from a Gram matrix.

    Computes the symmetric eigendecomposition of ``G`` in its working
    precision, maps eigenvalues to singular values via
    ``sigma = sqrt(|lambda|)`` (absolute value because lost-accuracy
    eigenvalues can come out negative), and returns ``(U, sigma)``
    sorted by descending sigma.
    """
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeError("Gram matrix must be square")
    with trace_span("eigh", phase=PHASE_EVD, mode=mode, n=G.shape[0]):
        w, V = np.linalg.eigh(G)
        sigma = np.sqrt(np.abs(w))
        order = np.argsort(sigma)[::-1]
        if counter is not None:
            counter.add(eigh_flops(G.shape[0]), phase=PHASE_EVD, mode=mode)
        U, sigma = V[:, order], sigma[order]
        # Fault-injection hook (one thread-local read when disabled):
        # a KernelFaultRule targeting "eigh" corrupts this call's output.
        inj = current_injector()
        if inj is not None:
            U, sigma = inj.kernel_fault("eigh", U, sigma)
        return U, sigma


def left_svd_of_triangle(
    L: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and left vectors of the (small) triangular factor.

    Uses the QR-iteration driver ``gesvd`` — the routine the paper calls —
    rather than divide-and-conquer, and never forms the right vectors
    (``JOBVT='N'``); the values and left vectors are those SciPy's
    ``svd(..., lapack_driver="gesvd")`` returns.
    """
    L = np.asarray(L)
    if L.ndim != 2:
        raise ShapeError("expected a matrix")
    with trace_span("gesvd", phase=PHASE_SVD, mode=mode,
                    rows=L.shape[0], cols=L.shape[1]):
        # gesvd destroys its input: work on a Fortran-ordered copy
        # (integers widen to float64, as they did through SciPy).
        work = np.array(L, dtype=np.result_type(L.dtype, np.float32), order="F")
        U, sigma = _capi.gesvd(work, _capi.Workspace())
        if counter is not None:
            counter.add(svd_flops(*L.shape), phase=PHASE_SVD, mode=mode)
        # Fault-injection hook (one thread-local read when disabled).
        inj = current_injector()
        if inj is not None:
            U, sigma = inj.kernel_fault("gesvd", U, sigma)
        return U, sigma


def gram_svd(
    A: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-SVD of a matrix: ``(U, sigma)`` with U the left singular vectors."""
    G = gram_matrix(np.asarray(A), counter=counter, mode=mode)
    return svd_from_gram(G, counter=counter, mode=mode)


def qr_svd(
    A: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """QR-SVD of a matrix: LQ then SVD of L; returns ``(U, sigma)``."""
    L = gelq(np.asarray(A), counter=counter, mode=mode)
    return left_svd_of_triangle(L, counter=counter, mode=mode)


def tensor_gram_svd(
    tensor: DenseTensor,
    n: int,
    *,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-SVD of the mode-``n`` unfolding via block syrk accumulation."""
    G = tensor_gram(tensor, n, counter=counter)
    return svd_from_gram(G, counter=counter, mode=n)


def tensor_qr_svd(
    tensor: DenseTensor,
    n: int,
    *,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """QR-SVD of the mode-``n`` unfolding via TensorLQ (Alg. 2)."""
    L = tensor_lq(tensor, n, counter=counter)
    return left_svd_of_triangle(L, counter=counter, mode=n)
