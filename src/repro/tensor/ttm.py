"""Tensor-times-matrix (TTM) kernels.

``ttm(X, U, n)`` computes ``Y = X x_n U`` defined by ``Y_(n) = U @ X_(n)``
(Sec. 2.1).  In ST-HOSVD the factor is applied transposed
(``Y = X x_n U^T`` with ``U`` tall), shrinking mode ``n`` from ``I_n`` to
``R_n``; :func:`ttm` takes a ``transpose`` flag for that case, matching
TuckerMPI's kernel ([6, Alg. 3]).

Layout-aware implementation: the mode-``n`` unfolding is a sequence of
contiguous row-major column blocks, so the product is computed block by
block without materializing the full (transposed) unfolding.  Each block
product ``U @ B_j`` writes directly into the corresponding block view of
the output tensor, which keeps the operation single-pass and
allocation-minimal, as the paper's implementation does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError
from ..util.validation import check_axis
from . import layout
from .dense import DenseTensor

__all__ = ["ttm", "multi_ttm", "ttm_flops"]


def ttm(tensor: DenseTensor, matrix: np.ndarray, n: int, *, transpose: bool = False) -> DenseTensor:
    """Mode-``n`` product ``X x_n U`` (or ``X x_n U^T`` when ``transpose``).

    Parameters
    ----------
    tensor:
        Input tensor with mode-``n`` dimension ``I_n``.
    matrix:
        ``(K, I_n)`` matrix (``(I_n, K)`` when ``transpose=True``).
    n:
        Contraction mode.
    transpose:
        Apply ``U^T`` instead of ``U`` — the ST-HOSVD truncation case.

    Returns
    -------
    DenseTensor
        Result with mode-``n`` dimension ``K``, same working precision
        as the input tensor.
    """
    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    n = check_axis(n, tensor.ndim)
    U = np.asarray(matrix)
    if U.ndim != 2:
        raise ShapeError("TTM factor must be a matrix")
    in_dim = tensor.shape[n]
    op = U.T if transpose else U
    if op.shape[1] != in_dim:
        raise ShapeError(
            f"TTM factor contracts {op.shape[1]} indices but mode {n} has {in_dim}"
        )
    if op.dtype != tensor.dtype:
        op = op.astype(tensor.dtype)
    out_dim = op.shape[0]
    out_shape = tensor.shape[:n] + (out_dim,) + tensor.shape[n + 1 :]
    # Uninitialised: the products below write every element.
    out = DenseTensor(np.empty(out_shape, dtype=tensor.dtype, order="F"))

    if n == 0:
        # Mode-0 unfoldings of input and output are both zero-copy
        # column-major views: one matmul does the whole product.
        np.matmul(op, tensor.unfold(0), out=out.unfold(0))
        return out

    nblocks = tensor.num_column_blocks(n)
    rows, bcols = layout.block_shape(tensor.shape, n)
    # Each input block is (I_n x prod_before) row-major; the matching
    # output block is (out_dim x prod_before).  Blocks are batched into
    # chunks and handled by one broadcasted matmul writing straight into
    # the output views, keeping Python-level iteration off the critical
    # path for the many-small-blocks modes.
    chunk = max(1, (1 << 20) // max(rows * bcols, 1))
    j = 0
    while j < nblocks:
        j1 = min(j + chunk, nblocks)
        src = tensor.column_block_range(n, j, j1)  # (k, rows, bcols)
        dst = out.column_block_range(n, j, j1)  # (k, out_dim, bcols)
        np.matmul(op, src, out=dst)
        j = j1
    return out


def multi_ttm(
    tensor: DenseTensor,
    matrices: Sequence[np.ndarray | None],
    *,
    transpose: bool = False,
) -> DenseTensor:
    """Apply a TTM in every mode with a non-``None`` factor.

    Used for reconstructing a Tucker approximation
    (``G x_0 U_0 ... x_{N-1} U_{N-1}``).  Modes are processed in
    increasing order of the intermediate result size growth, i.e. simply
    ascending, which is adequate for the reconstruction use case.
    """
    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    if len(matrices) != tensor.ndim:
        raise ShapeError(
            f"need one factor slot per mode ({tensor.ndim}), got {len(matrices)}"
        )
    result = tensor
    for mode, mat in enumerate(matrices):
        if mat is not None:
            result = ttm(result, mat, mode, transpose=transpose)
    return result


def ttm_flops(shape: Sequence[int], n: int, out_dim: int) -> int:
    """Flop count of a mode-``n`` TTM producing mode dimension ``out_dim``.

    A matrix product ``(out_dim x I_n) @ (I_n x cols)`` costs
    ``2 * out_dim * I_n * cols`` flops.
    """
    cols = 1
    for k, d in enumerate(shape):
        if k != n:
            cols *= d
    return 2 * out_dim * shape[n] * cols
