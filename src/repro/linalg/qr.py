"""QR/LQ driver routines (``geqr`` / ``gelq`` equivalents).

The paper calls LAPACK's driver routines for any row- or column-major
submatrix and reserves the structured ``tpqrt`` kernel for the tree
steps (Sec. 4.2.1).  Here every driver is the same flat tree
(:func:`flat_tree_lq`, Alg. 2): the matrix is consumed about
``2048`` columns at a time and LAPACK ``tpqrt`` folds each chunk into
the single live triangle, which starts at zero (``tpqrt`` on a zero
triangle is the Householder QR of the chunk), so the working set stays
in cache whatever the layout and no full-size temporary is made.
``backend="householder"`` swaps LAPACK for our own Householder kernels,
the reference the tests validate it against; both produce a valid
triangular factor (they may differ by row/column signs, which is
immaterial to the SVD that consumes them).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import ShapeError
from ..faults._hook import current_injector
from ..instrument import FlopCounter, PHASE_LQ
from ..obs._hook import trace_span
from . import _capi
from .tpqrt import BACKENDS, _check_backend, _fold

__all__ = ["geqr", "gelq", "flat_tree_lq", "block_runs", "BACKENDS"]

# Unfolding columns folded per LAPACK call: a 2048 x 64 float32 chunk and
# its triangle fit in L2, and the per-call overhead is amortized.
_CHUNK_COLS = 2048

# _pack: bytes of one tile of a transposed copy (128 unfolding columns at 64
# float32 rows, so that the tile's source lines are used up while they are
# in L1); measurements in docs/algorithms.md.
_TILE_BYTES = 1 << 15
# _pack: row segments up to this many bytes are copied as opaque items,
# _SEGMENT_BLOCKS blocks at a time.  Each block is one read stream, and the
# hardware prefetcher follows 32 at a time, not the 86 of a run of 24-column
# blocks; longer segments already copy at memcpy speed and measured 5-15 %
# slower as items (EXPERIMENTS.md, "Packing at memory speed").
_SEGMENT_BYTES = 256
_SEGMENT_BLOCKS = 32


def _inject(kernel: str, M: np.ndarray) -> np.ndarray:
    """Fault-injection hook (one thread-local read when disabled)."""
    inj = current_injector()
    if inj is not None:
        M, _ = inj.kernel_fault(kernel, M)
    return M


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
    Fortran-ordered buffer and annihilated against the live triangle
    with ``tpqrt``, all steps sharing this call's LAPACK scratch.  The
    triangle starts at zero, so the input is never modified and any
    chunking is accepted, runs narrower than ``rows`` included.

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
        Rt = np.zeros((rows, rows), dtype=dtype, order="F")
        cols = 0
        for run in runs:
            buf, work = _pack(run, buf)
            _fold(Rt, work, 0, backend, True, counter, mode, ws)
            cols += work.shape[0]
        # tpqrt never writes below the diagonal; with fewer columns than
        # rows only the first ``cols`` rows of the triangle are the factor.
        return _inject(kernel, np.ascontiguousarray(Rt[:cols].T))


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
    wider block's rows are contiguous segments: a short one is copied as
    one opaque ``bcols``-element item (same bits), so NumPy's copy loop
    runs over blocks rather than over a segment's elements,
    ``_SEGMENT_BLOCKS`` blocks at a time.  A single block, a long or
    strided segment and a casting copy go in one plain copy.
    """
    k, rows, bcols = run.shape
    if buf.size < run.size:
        buf = np.empty(run.size, dtype=buf.dtype)
    work = buf[: run.size].reshape((k * bcols, rows), order="F")
    dst, src = work.T.reshape(rows, k, bcols), run.transpose(1, 0, 2)
    step, tile = k, _TILE_BYTES // max(rows * buf.itemsize, 1)
    if bcols == 1 and tile >= 2:
        step = tile
    elif (bcols > 1 and k > 1 and bcols * run.itemsize <= _SEGMENT_BYTES
          and run.dtype == buf.dtype and run.strides[2] == run.itemsize):
        segment = np.dtype((np.void, bcols * run.itemsize))
        dst, src, step = dst.view(segment), src.view(segment), _SEGMENT_BLOCKS
    for j in range(0, k, max(step, 1)):
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
