"""One-sided Jacobi SVD.

One-sided Jacobi applies right plane rotations until the columns of the
working matrix are orthogonal, at which point the column norms are the
singular values and the normalized columns are the **left** singular
vectors — exactly the outputs ST-HOSVD needs, with no right-vector
accumulation.  It computes small singular values to high *relative*
accuracy (better than QR iteration).  That makes it the parallel
guard's first fallback for a triangle whose LAPACK SVD came back
non-finite (:func:`repro.faults.guards.guarded_mode_svd`) and a
reference for the tests.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..instrument import FlopCounter, PHASE_SVD

__all__ = ["jacobi_orthogonalize_pairs", "jacobi_left_svd"]


def jacobi_orthogonalize_pairs(
    W: np.ndarray,
    pairs=None,
    *,
    tol: float | None = None,
    zero_sq: float | None = None,
) -> int:
    """Apply one Jacobi rotation to each column pair; returns rotation count.

    ``W`` is modified in place.  ``pairs`` defaults to every ``p < q``
    combination (one full sweep).  A rotation is skipped when the pair is
    already numerically orthogonal relative to ``tol`` (default: machine
    epsilon of the dtype).

    ``zero_sq`` is the squared column-norm below which a column counts as
    numerically zero *for the whole matrix* (default ``(eps ||W||_F)^2``).
    Without it, a column annihilated by an earlier rotation — parallel
    columns leave an ``eps``-level residue — would keep failing the
    relative orthogonality test forever and the sweep would never
    converge.
    """
    if W.ndim != 2:
        raise ShapeError("expected a matrix")
    n = W.shape[1]
    dt = W.dtype
    if tol is None:
        tol = float(np.finfo(dt).eps)
    if zero_sq is None:
        frob = float(np.linalg.norm(W.astype(np.float64, copy=False)))
        zero_sq = (float(np.finfo(dt).eps) * frob) ** 2
    if pairs is None:
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rotations = 0
    for p, q in pairs:
        wp = W[:, p]
        wq = W[:, q]
        app = float(wp @ wp)
        aqq = float(wq @ wq)
        apq = float(wp @ wq)
        if app <= zero_sq or aqq <= zero_sq:
            continue
        if abs(apq) <= tol * np.sqrt(app * aqq):
            continue
        zeta = (aqq - app) / (2.0 * apq)
        t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
        if zeta == 0.0:
            t = 1.0
        cs = 1.0 / np.sqrt(1.0 + t * t)
        sn = cs * t
        cs = dt.type(cs)
        sn = dt.type(sn)
        new_p = cs * wp - sn * wq
        new_q = sn * wp + cs * wq
        W[:, p] = new_p
        W[:, q] = new_q
        rotations += 1
    return rotations


def jacobi_left_svd(
    A: np.ndarray,
    *,
    max_sweeps: int = 30,
    tol: float | None = None,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and left singular vectors via one-sided Jacobi.

    Sweeps over all column pairs until a sweep applies no rotation (all
    columns mutually orthogonal to ``tol``).  Returns ``(U, sigma)``
    sorted descending; zero singular values get arbitrary orthonormal
    completion-free columns (left as zeros, which downstream truncation
    discards).

    Raises
    ------
    ConvergenceError
        If ``max_sweeps`` full sweeps do not reach orthogonality.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError("expected a matrix")
    W = np.array(A, order="F", copy=True)
    m, n = W.shape
    frob = float(np.linalg.norm(W.astype(np.float64, copy=False)))
    zero_sq = (float(np.finfo(W.dtype).eps) * frob) ** 2
    total_rot = 0
    for _sweep in range(max_sweeps):
        rot = jacobi_orthogonalize_pairs(W, tol=tol, zero_sq=zero_sq)
        total_rot += rot
        if rot == 0:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {max_sweeps} sweeps"
        )
    sigma = np.linalg.norm(W.astype(np.float64, copy=False), axis=0)
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    W = W[:, order]
    U = np.zeros_like(W)
    nz = sigma > 0
    U[:, nz] = W[:, nz] / sigma[nz].astype(W.dtype)
    if counter is not None:
        # ~6m flops per rotation (two column updates) plus pair dot
        # products per sweep.
        counter.add(int(6 * m * total_rot + 4 * m * n * n), phase=PHASE_SVD, mode=mode)
    return U, sigma.astype(A.dtype)
