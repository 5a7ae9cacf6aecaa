"""QR/LQ driver routines (``geqr`` / ``gelq`` equivalents).

The paper calls LAPACK's driver routines for any row- or column-major
submatrix and reserves the structured ``tpqrt`` kernel for the tree
steps (Sec. 4.2.1).  Here every driver is the same flat tree
(:func:`flat_tree_lq`, Alg. 2): the matrix is consumed about
``2048`` columns at a time, LAPACK ``geqrf`` factors the first chunk and
``tpqrt`` folds each later one into the single live triangle, so the
working set stays in cache whatever the layout and no full-size
temporary is made.  ``backend="householder"`` swaps LAPACK for our own
Householder kernels, the reference the tests validate it against; both
produce a valid triangular factor (they may differ by row/column signs,
which is immaterial to the SVD that consumes them).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import ShapeError
from ..faults._hook import current_injector
from ..instrument import FlopCounter, PHASE_LQ
from ..obs.tracer import trace_span
from . import _capi
from .flops import qr_flops
from .tpqrt import BACKENDS, _check_backend, _fold

__all__ = ["geqr", "gelq", "flat_tree_lq", "block_runs", "BACKENDS"]

# Unfolding columns folded per LAPACK call: a 2048 x 64 float32 chunk and
# its triangle fit in L2, and the per-call overhead is amortized.
_CHUNK_COLS = 2048

# _pack: bytes of one tile of a transposed copy (128 unfolding columns at 64
# float32 rows, so that the tile's source lines are used up while they are
# in L1); measurements in docs/algorithms.md.
_TILE_BYTES = 1 << 15


def _inject(kernel: str, M: np.ndarray) -> np.ndarray:
    """Fault-injection hook (one thread-local read when disabled)."""
    inj = current_injector()
    if inj is not None:
        M, _ = inj.kernel_fault(kernel, M)
    return M


def _first_triangle(work, backend, counter, mode, ws: _capi.Workspace) -> np.ndarray:
    """Upper-trapezoidal R of the packed first chunk (destroys ``work``)."""
    if backend == "householder":
        from .householder import qr_r

        return qr_r(work, counter=counter, mode=mode)
    m, n = work.shape
    _capi.geqrf(work, ws)
    if counter is not None:
        counter.add(qr_flops(max(m, n), min(m, n)), phase=PHASE_LQ, mode=mode)
    # Reflectors below the diagonal stay: tpqrt never reads them and the
    # final np.tril drops them.
    return work[: min(m, n)].copy(order="F")


def flat_tree_lq(
    kernel: str,
    runs: Iterable[np.ndarray],
    rows: int,
    dtype,
    *,
    backend: str = "lapack",
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """Flat-tree LQ (paper Alg. 2) of an unfolding given as block runs.

    ``runs`` yields, in column order, arrays of shape ``(k, rows,
    bcols)`` with any strides: ``k`` consecutive row-major column blocks
    of the ``rows``-row unfolding (a plain ``rows x c`` matrix chunk is
    the ``k = 1`` case).  Each run is packed, transposed, into one reused
    Fortran-ordered buffer; the first is QR-factored and every later one
    is annihilated against the live triangle with ``tpqrt``, all steps
    sharing this call's LAPACK scratch.  Leading runs with fewer than
    ``rows`` columns are merged first, so the input is never modified
    and any chunking is accepted.

    Returns the ``rows x rows`` lower-triangular ``L`` (``rows x cols``
    lower trapezoid when the whole unfolding has ``cols < rows``).
    ``kernel`` (``"gelq"`` or ``"geqr"``) names the span and the
    fault-injection hook, which fires once on the result.
    """
    _check_backend(backend)
    # Working precision as DenseTensor picks it: float32 stays, all else float64.
    dtype = np.dtype(dtype if dtype == np.float32 else np.float64)
    with trace_span(kernel, phase=PHASE_LQ, mode=mode, rows=rows, backend=backend):
        buf = np.empty(0, dtype=dtype)
        ws = _capi.Workspace()
        Rt = head = None
        for run in runs:
            if Rt is None and (head is not None or run.shape[0] * run.shape[2] < rows):
                flat = run.transpose(1, 0, 2).reshape(rows, -1)
                head = flat if head is None else np.concatenate([head, flat], axis=1)
                if head.shape[1] < rows:
                    continue
                run, head = head[None], None
            buf, work = _pack(run, buf)
            if Rt is None:
                Rt = _first_triangle(work, backend, counter, mode, ws)
            else:
                _fold(Rt, work, 0, backend, True, counter, mode, ws)
        if head is not None:  # the whole unfolding has fewer columns than rows
            Rt = _first_triangle(_pack(head[None], buf)[1], backend, counter, mode, ws)
        if Rt is None:  # no columns at all
            return _inject(kernel, np.zeros((rows, 0), dtype=dtype))
        return _inject(kernel, np.ascontiguousarray(np.tril(Rt.T)))


def block_runs(blocks: np.ndarray) -> Iterator[np.ndarray]:
    """Cut ``(nblocks, rows, bcols)`` column blocks into runs for
    :func:`flat_tree_lq`: zero-copy views of about ``_CHUNK_COLS``
    columns (at least ``rows``) — several whole blocks when they are
    narrow, a column slice of one block when it is wide."""
    nblocks, rows, bcols = blocks.shape
    if blocks.size == 0:
        return
    width = max(_CHUNK_COLS, rows)
    k = -(-width // bcols)
    for j in range(0, nblocks, k):
        for c in range(0, bcols, width):
            yield blocks[j : j + k, :, c : c + width]


def _pack(run: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copy ``run`` transposed into ``buf`` (regrown if too small); returns
    the buffer and its Fortran-ordered ``(k * bcols, rows)`` prefix.

    One-column blocks (mode 0) make the copy a plain matrix transpose, which
    NumPy walks a destination row at a time, fetching every source cache
    line once per row; it is done a tile of columns at a time instead.  A
    wider block's rows are contiguous segments and go in one copy.
    """
    k, rows, bcols = run.shape
    if buf.size < run.size:
        buf = np.empty(run.size, dtype=buf.dtype)
    work = buf[: run.size].reshape((k * bcols, rows), order="F")
    dst, src = work.T.reshape(rows, k, bcols), run.transpose(1, 0, 2)
    step = _TILE_BYTES // max(rows * buf.itemsize, 1)
    if bcols != 1 or step < 2:
        np.copyto(dst, src)
    else:
        for j in range(0, k, step):
            np.copyto(dst[:, j : j + step], src[:, j : j + step])
    return buf, work


def geqr(
    A: np.ndarray,
    *,
    backend: str = "lapack",
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """R factor of a QR decomposition (``min(m,n) x n`` upper trapezoid).

    Use for tall (or any) matrices where QR of the stored layout is the
    natural operation — e.g. the transposed row-major last-mode
    unfolding.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError("geqr expects a matrix")
    # R of A is the transposed L of A^T.
    L = flat_tree_lq("geqr", block_runs(A.T[None]), A.shape[1], A.dtype,
                     backend=backend, counter=counter, mode=mode)
    return np.ascontiguousarray(L.T)


def gelq(
    A: np.ndarray,
    *,
    backend: str = "lapack",
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """L factor of an LQ decomposition (``m x min(m,n)`` lower trapezoid).

    The short-fat case (``m <= n``) returns the ``m x m`` lower triangle
    whose SVD yields the left singular vectors of ``A`` (Sec. 3.1).
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError("gelq expects a matrix")
    return flat_tree_lq("gelq", block_runs(A[None]), A.shape[0], A.dtype,
                        backend=backend, counter=counter, mode=mode)
