"""Distributed-memory tensor layer: grids, block layouts, parallel kernels.

This package implements the data-distribution side of the paper: an
N-dimensional processor grid (Sec. 3.1), block-distributed dense
tensors, the unfolding redistribution that feeds mode-wise kernels
(Sec. 3.2), the butterfly TSQR reduction used by the numerically
accurate parallel QR-SVD (Sec. 3.3), the parallel Gram pipeline it is
compared against, and the truncating TTM that shrinks the tensor
between modes (Sec. 3.4).  All kernels run on the simulated-MPI
:mod:`repro.mpi` runtime and keep their results bitwise replicated
across ranks.
"""

from __future__ import annotations

from .._lazy import lazy_exports

# `import repro` has imported the layout (dtensor, grid): all a
# sequential run needs to tell a distributed tensor from a dense one.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".dtensor": ("DistributedTensor", "GridComms"),
    ".grid": ("ProcessorGrid", "block_range"),
    ".gram": ("par_tensor_gram",),
    ".redistribute": ("distribute_from_root",
                      "redistribute_unfolding_to_columns"),
    ".svd": ("par_tensor_gram_svd", "par_tensor_qr_svd"),
    ".tsqr": ("butterfly_tsqr_reduce",),
    ".ttm": ("par_ttm_truncate",),
})

__all__ = [
    "ProcessorGrid",
    "GridComms",
    "DistributedTensor",
    "block_range",
    "distribute_from_root",
    "redistribute_unfolding_to_columns",
    "butterfly_tsqr_reduce",
    "par_tensor_gram",
    "par_tensor_gram_svd",
    "par_tensor_qr_svd",
    "par_ttm_truncate",
]
