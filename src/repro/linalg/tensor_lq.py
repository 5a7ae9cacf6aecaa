"""Sequential LQ of a tensor unfolding — paper Algorithm 2.

The mode-``n`` unfolding of a natural-layout tensor is a sequence of
contiguous row-major ``I_n x prod_before`` column blocks.  TensorLQ
reduces it to a single ``I_n x I_n`` lower-triangular factor with a
flat-tree TSQR, the same loop for every mode: the blocks are cut into
runs of about 2048 unfolding columns (many one-column blocks for mode
0, slices of the single block for the last mode) and each run is folded
into the live triangle, which starts at zero, with ``tpqrt``
(:func:`repro.linalg.qr.flat_tree_lq`), streaming through the tensor
exactly once.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..instrument import FlopCounter, PHASE_LQ
from ..obs._hook import trace_span
from ..tensor.dense import DenseTensor
from .qr import block_runs, flat_tree_lq

__all__ = ["tensor_lq"]


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
