"""Dense tensor container with TuckerMPI's natural (mode-0-fastest) layout.

:class:`DenseTensor` wraps a Fortran-contiguous NumPy array so that the
column-block structure of every unfolding (see :mod:`repro.tensor.layout`)
is available as zero-copy views.  All numerical kernels in
:mod:`repro.linalg` operate on these views, which is what lets the
sequential TensorLQ algorithm (paper Alg. 2) stream through the tensor
once without any transposition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError
from ..precision import Precision, resolve_precision
from ..util.validation import check_axis
from . import layout

__all__ = ["DenseTensor", "sum_of_squares"]


def sum_of_squares(flat: np.ndarray) -> float:
    """Sum of squares of a 1-D buffer, accumulated in float64.

    float64 is one ``np.dot`` and a contiguous float32 buffer one BLAS
    ``dsdot``, which reads the float32 data as it lies (how exact its
    float64 sum is depends on the BLAS: see
    :func:`repro.linalg._capi.dsdot`); anything else is widened one
    cache-sized slice at a time instead of allocating a float64 copy of
    the whole buffer.
    """
    if flat.dtype == np.float64:
        return float(np.dot(flat, flat))
    if flat.dtype == np.float32 and flat.flags.c_contiguous:
        # Imported here: repro.linalg imports this module.
        from ..linalg._capi import dsdot

        return dsdot(flat)
    total, step = 0.0, 1 << 15
    for i in range(0, flat.size, step):
        piece = flat[i : i + step].astype(np.float64)
        total += float(piece @ piece)
    return total


class DenseTensor:
    """An N-mode dense tensor stored mode-0-fastest (Fortran order).

    Parameters
    ----------
    data:
        Array of shape ``(I_0, ..., I_{N-1})``.  Copied/converted to a
        Fortran-contiguous array of a supported working precision
        (float32 or float64) unless it already is one.

    Notes
    -----
    The class is deliberately *not* an ndarray subclass: the few
    operations ST-HOSVD needs (unfoldings, column-block views, norms,
    TTM) are explicit methods, which keeps layout guarantees airtight.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        if np.ndim(data) == 0:
            raise ShapeError("a tensor must have at least one mode")
        arr = np.asfortranarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = np.asfortranarray(arr, dtype=np.float64)
        self._data = arr

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying Fortran-contiguous ndarray (do not reorder it)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def precision(self) -> Precision:
        return resolve_precision(self._data.dtype)

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseTensor(shape={self.shape}, dtype={self.dtype.name})"

    # ------------------------------------------------------------------
    # Creation helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape: Sequence[int], dtype=np.float64) -> "DenseTensor":
        """All-zero tensor of the given shape and working precision."""
        prec = resolve_precision(dtype)
        return cls(np.zeros(shape, dtype=prec.dtype, order="F"))

    @classmethod
    def from_flat(cls, flat: np.ndarray, shape: Sequence[int]) -> "DenseTensor":
        """Build from a 1-D buffer laid out in natural (mode-0-fastest) order."""
        flat = np.asarray(flat)
        if flat.ndim != 1:
            raise ShapeError("from_flat expects a 1-D buffer")
        if flat.size != layout.prod_all(shape):
            raise ShapeError(
                f"buffer of {flat.size} elements cannot fill shape {tuple(shape)}"
            )
        return cls(flat.reshape(shape, order="F"))

    def copy(self) -> "DenseTensor":
        """Deep copy (fresh Fortran-contiguous buffer)."""
        return DenseTensor(self._data.copy(order="F"))

    def astype(self, dtype) -> "DenseTensor":
        """This tensor in another working precision.

        Converting copies; a tensor already in that precision is wrapped
        again around the same buffer, not copied.
        """
        prec = resolve_precision(dtype)
        return DenseTensor(np.asfortranarray(self._data, dtype=prec.dtype))

    # ------------------------------------------------------------------
    # Layout views
    # ------------------------------------------------------------------
    def flat_view(self) -> np.ndarray:
        """1-D zero-copy view of the buffer in natural order."""
        return self._data.reshape(-1, order="F")

    def unfold(self, n: int) -> np.ndarray:
        """Mode-``n`` unfolding ``X_(n)`` with columns ordered mode-0-fastest.

        Zero-copy for ``n == 0``; other modes require a transposition
        copy (which is exactly why Alg. 2 works block-wise instead).
        """
        n = check_axis(n, self.ndim)
        moved = np.moveaxis(self._data, n, 0)
        # Explicit column count: -1 cannot be inferred for an empty mode.
        return moved.reshape(layout.unfolding_shape(self.shape, n), order="F")

    def num_column_blocks(self, n: int) -> int:
        """Number of contiguous row-major column blocks of unfolding ``n``."""
        return layout.num_column_blocks(self.shape, n)

    def column_block(self, n: int, j: int) -> np.ndarray:
        """Zero-copy view of the ``j``-th column block of unfolding ``n``.

        The returned array has shape ``(I_n, prod_before(n))`` and is
        row-major (C-contiguous) as described in Sec. 3.3.
        """
        n = check_axis(n, self.ndim)
        nblocks = layout.num_column_blocks(self.shape, n)
        if not 0 <= j < nblocks:
            raise ShapeError(f"block {j} out of range (mode {n} has {nblocks} blocks)")
        rows, bcols = layout.block_shape(self.shape, n)
        blk = rows * bcols
        flat = self.flat_view()[j * blk : (j + 1) * blk]
        # A contiguous chunk where mode-n varies with stride prod_before:
        # that is an (I_n x prod_before) row-major matrix.
        return flat.reshape(rows, bcols)

    def column_block_range(self, n: int, j0: int, j1: int) -> np.ndarray:
        """Row-major view spanning column blocks ``j0..j1-1`` concatenated.

        Because consecutive blocks are contiguous in memory, any run of
        blocks is itself a valid ``(I_n, (j1-j0)*prod_before)``... only
        when ``I_n`` is the slowest-varying index *within the run*, which
        holds only for a single block.  For multiple blocks the run is a
        3-D view ``(j1-j0, I_n, prod_before)``; callers that need a 2-D
        short-fat matrix should hstack the blocks (copy).  This method
        returns the zero-copy 3-D view.
        """
        n = check_axis(n, self.ndim)
        nblocks = layout.num_column_blocks(self.shape, n)
        if not (0 <= j0 <= j1 <= nblocks):
            raise ShapeError(f"block range [{j0},{j1}) invalid for {nblocks} blocks")
        rows, bcols = layout.block_shape(self.shape, n)
        blk = rows * bcols
        flat = self.flat_view()[j0 * blk : j1 * blk]
        return flat.reshape(j1 - j0, rows, bcols)

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def norm_squared(self) -> float:
        """Squared Frobenius norm; accumulation always in float64."""
        return sum_of_squares(self.flat_view())

    def norm(self) -> float:
        """Frobenius norm (square root of :meth:`norm_squared`)."""
        return float(np.sqrt(self.norm_squared()))

    def allclose(self, other: "DenseTensor", rtol: float = 1e-5, atol: float = 1e-8) -> bool:
        """Shape equality plus elementwise ``np.allclose``."""
        return self.shape == other.shape and bool(
            np.allclose(self._data, other._data, rtol=rtol, atol=atol)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # Elementwise arithmetic (shape- and precision-checked)
    # ------------------------------------------------------------------
    def _binary(self, other, op) -> "DenseTensor":
        if isinstance(other, DenseTensor):
            if other.shape != self.shape:
                raise ShapeError(
                    f"shape mismatch {self.shape} vs {other.shape}"
                )
            other = other._data
        return DenseTensor(np.asfortranarray(op(self._data, other)))

    def __add__(self, other) -> "DenseTensor":
        return self._binary(other, np.add)

    def __sub__(self, other) -> "DenseTensor":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar) -> "DenseTensor":
        if isinstance(scalar, DenseTensor):
            raise ShapeError("use elementwise ops on .data for tensor*tensor")
        return DenseTensor(np.asfortranarray(self._data * self.dtype.type(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(np.asfortranarray(-self._data))
