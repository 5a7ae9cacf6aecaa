"""The streamed kernels of out-of-core ST-HOSVD.

``sthosvd`` given an :class:`~repro.data.outofcore.OutOfCoreTensor` runs
the paper's Alg. 1 against the file: per mode, the Gram matrix (or the
flat-tree LQ) is accumulated from streamed unfolding chunks — the
identical mathematics of the in-memory kernels, applied to bounded-size
chunks — then the TTM truncation streams the shrunken tensor to a
scratch file that becomes the next mode's input.  Peak memory is
O(chunk + I_n^2), independent of the tensor size.  The two reductions
live here.
"""

from __future__ import annotations

import numpy as np

from ..instrument import FlopCounter
from ..data.outofcore import OutOfCoreTensor, DEFAULT_CHUNK_ELEMENTS
from ..linalg.gram import streamed_gram
from ..linalg.qr import flat_tree_lq

__all__ = ["ooc_tensor_gram", "ooc_tensor_lq"]


def ooc_tensor_gram(
    ooc: OutOfCoreTensor,
    n: int,
    *,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Gram matrix of the mode-``n`` unfolding from streamed chunks: the
    :func:`~repro.linalg.gram.streamed_gram` loop of the in-memory
    ``tensor_gram``, fed from the file."""
    runs = (chunk[None] for chunk in ooc.iter_unfolding_chunks(n, max_elements))
    return streamed_gram(runs, ooc.shape[n], ooc.dtype, counter=counter, mode=n)


def ooc_tensor_lq(
    ooc: OutOfCoreTensor,
    n: int,
    *,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Flat-tree LQ of the mode-``n`` unfolding from streamed chunks.

    Alg. 2 with disk chunks as blocks: the same
    :func:`~repro.linalg.qr.flat_tree_lq` loop the in-memory
    ``tensor_lq`` runs, fed from the file.
    """
    runs = (chunk[None] for chunk in ooc.iter_unfolding_chunks(n, max_elements))
    return flat_tree_lq("gelq", runs, ooc.shape[n], ooc.dtype,
                        counter=counter, mode=n)
