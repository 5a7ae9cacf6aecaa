"""Out-of-core tensor access: stream unfolding chunks from a raw file.

TuckerMPI's driving use case is compressing simulation output too large
for memory.  The single-pass structure of the paper's kernels — Gram
accumulates one syrk per column block, TensorLQ annihilates one block
per ``tpqrt`` — means neither ever needs the whole tensor resident: they
only need the unfolding's columns *in order, once*.  This module
provides exactly that: :class:`OutOfCoreTensor` wraps a raw natural-order
file (the format of :mod:`repro.data.io`) behind a memory-mapped view
and yields bounded-size column chunks of any mode's unfolding.

Chunking covers both regimes:

* early/middle modes: many small column blocks — chunks are runs of
  whole blocks (contiguous on disk);
* the last mode: one enormous row-major block — chunks are column
  ranges within it (strided reads served by the page cache).
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from ..errors import ShapeError
from ..precision import resolve_precision
from ..tensor import layout
from ..tensor.dense import DenseTensor, sum_of_squares

__all__ = ["OutOfCoreTensor", "DEFAULT_CHUNK_ELEMENTS"]

DEFAULT_CHUNK_ELEMENTS = 1 << 22  # 4M elements (~32 MB float64) per chunk


class OutOfCoreTensor:
    """Read-only tensor backed by a raw natural-order binary file.

    ``dtype`` is the precision *stored in the file*; ``work_dtype``
    (default: same) is the precision chunks are delivered in — pass
    ``work_dtype="single"`` to stream a double-precision dump through a
    single-precision pipeline, exactly how the paper's single-precision
    runs consume the double-precision application datasets.
    """

    def __init__(self, path: str, shape, dtype=np.float64, *, work_dtype=None) -> None:
        self.path = path
        self.shape = tuple(int(s) for s in shape)
        prec = resolve_precision(dtype)
        self.file_dtype = prec.dtype
        self.dtype = (
            resolve_precision(work_dtype).dtype if work_dtype is not None else prec.dtype
        )
        expected = layout.prod_all(self.shape) * self.file_dtype.itemsize
        actual = os.path.getsize(path)
        if actual != expected:
            raise ShapeError(
                f"file {path} holds {actual} bytes; shape {self.shape} at "
                f"{self.file_dtype} needs {expected}"
            )

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return layout.prod_all(self.shape)

    def _memmap(self) -> np.memmap:
        return np.memmap(self.path, dtype=self.file_dtype, mode="r")

    def _cast(self, arr: np.ndarray) -> np.ndarray:
        return arr.astype(self.dtype, copy=False)

    @classmethod
    def from_dense(cls, tensor: DenseTensor, path: str) -> "OutOfCoreTensor":
        """Spill a dense tensor to a raw file (natural order)."""
        with open(path, "wb") as f:
            tensor.flat_view().tofile(f)
        return cls(path, tensor.shape, tensor.dtype)

    def to_dense(self) -> DenseTensor:
        """Load the whole tensor into memory (use only when it fits)."""
        flat = np.fromfile(self.path, dtype=self.file_dtype)
        return DenseTensor.from_flat(self._cast(flat), self.shape)

    def astype(self, precision) -> "OutOfCoreTensor":
        """The same file, its chunks delivered in another precision."""
        return OutOfCoreTensor(self.path, self.shape, self.file_dtype,
                               work_dtype=precision)

    # ------------------------------------------------------------------
    def norm_squared(self) -> float:
        """Squared Frobenius norm, accumulated chunkwise in float64."""
        mm = self._memmap()
        total = 0.0
        step = DEFAULT_CHUNK_ELEMENTS
        for start in range(0, mm.size, step):
            total += sum_of_squares(np.asarray(mm[start : start + step]))
        return total

    def norm(self) -> float:
        """Frobenius norm (chunked float64 accumulation)."""
        return float(np.sqrt(self.norm_squared()))

    # ------------------------------------------------------------------
    def iter_unfolding_chunks(
        self, n: int, max_elements: int = DEFAULT_CHUNK_ELEMENTS
    ) -> Iterator[np.ndarray]:
        """Yield the mode-``n`` unfolding as ``(I_n, k)`` column chunks.

        Chunks arrive in global column order; each holds at most
        ``max_elements`` entries (at least one column).  Every yielded
        array is a fresh in-memory copy safe to mutate.
        """
        if not 0 <= n < self.ndim:
            raise ShapeError(f"mode {n} out of range")
        rows, bcols = layout.block_shape(self.shape, n)
        nblocks = layout.num_column_blocks(self.shape, n)
        mm3 = self._memmap().reshape(nblocks, rows, bcols)
        cols_per_chunk = max(max_elements // max(rows, 1), 1)
        if bcols <= cols_per_chunk:
            blocks_per_chunk = max(cols_per_chunk // bcols, 1)
            for j0 in range(0, nblocks, blocks_per_chunk):
                j1 = min(j0 + blocks_per_chunk, nblocks)
                run = np.asarray(mm3[j0:j1])  # (k, rows, bcols), contiguous
                yield self._cast(
                    np.ascontiguousarray(run.transpose(1, 0, 2).reshape(rows, -1))
                )
        else:
            for j in range(nblocks):
                for c0 in range(0, bcols, cols_per_chunk):
                    c1 = min(c0 + cols_per_chunk, bcols)
                    yield self._cast(np.array(mm3[j, :, c0:c1]))

    # ------------------------------------------------------------------
    def ttm_truncate_to_file(
        self,
        U: np.ndarray,
        n: int,
        out_path: str,
        max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> "OutOfCoreTensor":
        """Stream ``Y = X x_n U^T`` to a new raw file (one read, one write).

        ``U`` is ``I_n x R_n``; the output file holds the truncated
        tensor in natural order.  Block structure is preserved, so the
        write is sequential when reads are (early modes) and strided
        through an output memmap otherwise (last mode).
        """
        U = np.asarray(U)
        rows = self.shape[n]
        if U.ndim != 2 or U.shape[0] != rows:
            raise ShapeError(f"factor must be ({rows} x R), got {U.shape}")
        op = np.ascontiguousarray(U.T.astype(self.dtype, copy=False))
        r_n = U.shape[1]
        out_shape = self.shape[:n] + (r_n,) + self.shape[n + 1 :]
        _, bcols = layout.block_shape(self.shape, n)
        nblocks = layout.num_column_blocks(self.shape, n)

        out_mm = np.memmap(
            out_path, dtype=self.dtype, mode="w+",
            shape=(nblocks, r_n, bcols),
        )
        in_mm = self._memmap().reshape(nblocks, rows, bcols)
        cols_per_chunk = max(max_elements // max(rows, 1), 1)
        if bcols <= cols_per_chunk:
            blocks_per_chunk = max(cols_per_chunk // bcols, 1)
            for j0 in range(0, nblocks, blocks_per_chunk):
                j1 = min(j0 + blocks_per_chunk, nblocks)
                run = self._cast(np.asarray(in_mm[j0:j1]))
                np.matmul(op, run, out=out_mm[j0:j1])
        else:
            for j in range(nblocks):
                for c0 in range(0, bcols, cols_per_chunk):
                    c1 = min(c0 + cols_per_chunk, bcols)
                    out_mm[j, :, c0:c1] = op @ self._cast(np.asarray(in_mm[j, :, c0:c1]))
        out_mm.flush()
        del out_mm
        return OutOfCoreTensor(out_path, out_shape, self.dtype)
