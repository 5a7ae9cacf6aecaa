"""Sequential LQ of a tensor unfolding — paper Algorithm 2.

The mode-``n`` unfolding of a natural-layout tensor is a sequence of
contiguous row-major ``I_n x prod_before`` column blocks.  TensorLQ
reduces it to a single ``I_n x I_n`` lower-triangular factor with a
flat-tree TSQR, the same loop for every mode: the blocks are cut into
runs of about 2048 unfolding columns (many one-column blocks for mode
0, slices of the single block for the last mode), the first run is
QR-factored and each later one is folded into the live triangle with
``tpqrt`` (:func:`repro.linalg.qr.flat_tree_lq`), streaming through
the tensor exactly once.  The first run has at least ``I_n`` columns
whenever the unfolding does (Sec. 3.3, last paragraph).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..instrument import FlopCounter, PHASE_LQ
from ..obs.tracer import trace_span
from ..tensor.dense import DenseTensor
from .qr import block_runs, flat_tree_lq, gelq

__all__ = ["tensor_lq", "tensor_lq_binary_tree"]


def tensor_lq_binary_tree(
    tensor: DenseTensor,
    n: int,
    *,
    backend: str = "lapack",
    counter: FlopCounter | None = None,
    leaf_cols: int | None = None,
) -> np.ndarray:
    """Binary-tree TSQR variant of :func:`tensor_lq` (ablation comparator).

    Where the flat tree folds each block into one running triangle, the
    binary tree factors leaf chunks independently and pairwise-reduces
    their triangles (``tpqrt`` on two stacked triangles) up a balanced
    tree — the sequential analogue of the parallel butterfly.  Same
    result (up to signs), same leading-order flops; the flat tree is the
    cache-friendly choice for streaming (one pass, one live triangle),
    the binary tree exposes task parallelism.
    """
    from .tpqrt import tpqrt_reduce_triangles

    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    ndim = tensor.ndim
    if not 0 <= n < ndim:
        raise ShapeError(f"mode {n} out of range for {ndim}-mode tensor")
    rows = tensor.shape[n]
    if tensor.size == 0:
        return np.zeros((rows, 0), dtype=tensor.dtype)
    Y = tensor.unfold(n)
    cols = Y.shape[1]
    if cols <= rows:
        return gelq(Y, backend=backend, counter=counter, mode=n)
    if leaf_cols is None:
        leaf_cols = max(rows, 256)
    leaf_cols = max(leaf_cols, rows)

    # Leaf factorizations.
    triangles = []
    for c0 in range(0, cols, leaf_cols):
        chunk = Y[:, c0 : c0 + leaf_cols]
        L = gelq(np.ascontiguousarray(chunk), backend=backend,
                 counter=counter, mode=n)
        Rt = np.zeros((rows, rows), dtype=tensor.dtype)
        Rt[: L.shape[1], :] = np.triu(L.T, 0)[: L.shape[1], :]
        triangles.append(Rt)

    # Balanced pairwise reduction.
    while len(triangles) > 1:
        nxt = []
        for i in range(0, len(triangles) - 1, 2):
            nxt.append(
                tpqrt_reduce_triangles(
                    triangles[i], triangles[i + 1], counter=counter, mode=n
                )
            )
        if len(triangles) % 2:
            nxt.append(triangles[-1])
        triangles = nxt
    return np.ascontiguousarray(np.tril(triangles[0].T))


def tensor_lq(
    tensor: DenseTensor,
    n: int,
    *,
    backend: str = "lapack",
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Lower-triangular L with ``Y_(n) = L Q`` for the mode-``n`` unfolding.

    Returns an ``I_n x I_n`` lower triangle (lower trapezoid
    ``I_n x cols`` in the degenerate case where the whole unfolding has
    fewer columns than rows).  Q is never formed.
    """
    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    ndim = tensor.ndim
    if not 0 <= n < ndim:
        raise ShapeError(f"mode {n} out of range for {ndim}-mode tensor")
    with trace_span("tensor_lq", phase=PHASE_LQ, mode=n):
        # The paper's driver names: geqr for the row-major last mode,
        # gelq elsewhere (span name and fault-injection hook).  An empty
        # local block (distributed runs where a mode's rank is smaller
        # than its processor-fiber size) has no runs and yields an empty
        # L, padded to a zero triangle by the parallel reduction.
        kernel = "geqr" if n == ndim - 1 else "gelq"
        blocks = tensor.column_block_range(n, 0, tensor.num_column_blocks(n))
        return flat_tree_lq(kernel, block_runs(blocks), tensor.shape[n],
                            tensor.dtype, backend=backend, counter=counter, mode=n)
