"""Gram-matrix computation of tensor unfoldings (TuckerMPI [6, Alg. 2]).

``G = Y_(n) Y_(n)^T`` is accumulated by one streaming loop for every
mode (:func:`streamed_gram`), the mirror of the flat-tree LQ: the column
blocks arrive in runs of about 2048 columns, a run of many narrow blocks
is packed into one matrix so that each fold is one syrk, and an
unfolding that already is one contiguous matrix goes to syrk whole.  The
tensor is read once and the unfolding never formed.  The accumulation
happens **in working precision** — the source of Gram-SVD's
``sqrt(eps)`` accuracy floor that the paper's QR-SVD avoids.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..instrument import FlopCounter, PHASE_GRAM
from ..obs._hook import trace_span
from ..tensor.dense import DenseTensor
from .flops import gram_flops
from .qr import _pack, block_runs

__all__ = ["gram_matrix", "tensor_gram", "streamed_gram"]


def _acc_dtype(dtype, accumulate: str | None) -> np.dtype:
    """Dtype of ``G``: float32 stays unless widened, all else is float64."""
    if accumulate not in (None, "double"):
        raise ValueError(f"accumulate must be None or 'double', got {accumulate!r}")
    return np.dtype(np.float32 if dtype == np.float32 and accumulate is None
                    else np.float64)


def _as_matrices(run: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The contiguous matrices ``run`` is made of, or None when packing pays:
    one-column blocks (mode 0) are one column-major matrix, and up to four
    blocks are folded one by one (measured: packing wins from 3 to 8 blocks
    per run, i.e. under 256 to 625 columns per block, at 16 to 128 rows)."""
    k, _, bcols = run.shape
    if bcols != 1 and k > 4:
        return None
    mats = (run[:, :, 0].T,) if bcols == 1 else tuple(run)
    if all(M.flags.c_contiguous or M.flags.f_contiguous for M in mats):
        return mats
    return None


def _unfolding_runs(blocks: np.ndarray, accumulate: str | None):
    """``blocks`` whole when it already is contiguous matrices that need no
    cast (chunking or packing them only adds a copy), else ``block_runs``."""
    if blocks.dtype == _acc_dtype(blocks.dtype, accumulate) and _as_matrices(blocks):
        return (blocks,)
    return block_runs(blocks)


def streamed_gram(
    runs: Iterable[np.ndarray],
    rows: int,
    dtype,
    *,
    accumulate: str | None = None,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """``Y Y^T`` of a ``rows``-row unfolding given as block runs.

    ``runs`` yields, in column order, ``(k, rows, bcols)`` arrays with
    any strides — what :func:`~repro.linalg.qr.block_runs` cuts for
    :func:`~repro.linalg.qr.flat_tree_lq`.  A run of a few contiguous
    matrices of the accumulation dtype is folded as it lies; any other
    (many narrow blocks, a strided slice, a run to widen) is first
    packed, cast included, into one reused buffer.  Each fold is one
    ``B @ B.T``; the input is never written.  ``accumulate="double"``
    (see :func:`gram_matrix`) therefore costs one run buffer, not a
    float64 copy of the unfolding.
    """
    dtype = _acc_dtype(dtype, accumulate)
    with trace_span("syrk", phase=PHASE_GRAM, mode=mode, rows=rows):
        G = np.zeros((rows, rows), dtype=dtype)
        buf = np.empty(0, dtype=dtype)
        cols = 0
        for run in runs:
            cols += run.shape[0] * run.shape[2]
            mats = _as_matrices(run) if run.dtype == dtype else None
            if mats is None:
                buf, work = _pack(run, buf)
                mats = (work.T,)
            for B in mats:
                G += B @ B.T
        # symmetrize against rounding asymmetry from the general gemm path
        G = (G + G.T) * dtype.type(0.5)
        if counter is not None:
            counter.add(gram_flops(rows, cols), phase=PHASE_GRAM, mode=mode)
        return G


def gram_matrix(
    A: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
    accumulate: str | None = None,
) -> np.ndarray:
    """``A @ A.T`` in the working precision of ``A`` (syrk equivalent).

    ``accumulate="double"`` implements the paper's future-work idea of
    mixed precision within Gram-SVD: float32 inputs are multiplied with
    float64 accumulation, pushing the Gram matrix's rounding error from
    ``eps_single * ||A||^2`` down to ``eps_double * ||A||^2`` and the
    singular-value floor from ``sqrt(eps_s)`` to ``~eps_s`` — at Gram
    cost rather than QR cost.  The result stays in float64 so the
    eigensolve benefits too.
    """
    A = np.asarray(A)
    return streamed_gram(_unfolding_runs(A[None], accumulate), A.shape[0], A.dtype,
                         accumulate=accumulate, counter=counter, mode=mode)


def tensor_gram(
    tensor: DenseTensor,
    n: int,
    *,
    counter: FlopCounter | None = None,
    accumulate: str | None = None,
) -> np.ndarray:
    """Gram matrix of the mode-``n`` unfolding, streamed block run by run.

    Zero-copy for mode 0 and the last mode, whose unfoldings are single
    contiguous matrices (one syrk); a middle mode's narrow row-major
    blocks are packed a run at a time (:func:`streamed_gram`).
    ``accumulate="double"``: mixed precision, see :func:`gram_matrix`.
    """
    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    blocks = tensor.column_block_range(n, 0, tensor.num_column_blocks(n))
    return streamed_gram(_unfolding_runs(blocks, accumulate), tensor.shape[n],
                         tensor.dtype, accumulate=accumulate, counter=counter, mode=n)
