"""Parallel Gram-matrix pipeline (the TuckerMPI baseline, Sec. 2.3).

The mode-``n`` Gram matrix ``G = Y_(n) Y_(n)^T`` is assembled by
letting each rank syrk its share of the unfolding's columns and
summing the partial products with one deterministic allreduce, so the
replicated ``G`` is bitwise identical everywhere.  When the mode fiber
is trivial (``P_n == 1``) the streamed local kernel runs directly on
the block — no redistribution, no staging copies.
"""

from __future__ import annotations

import numpy as np

from ..instrument import FlopCounter, PHASE_GRAM
from ..linalg.gram import gram_matrix, tensor_gram
from ..obs._hook import trace_span
from .dtensor import DistributedTensor
from .redistribute import redistribute_unfolding_to_columns

__all__ = ["par_tensor_gram"]


def par_tensor_gram(
    dt: DistributedTensor, n: int, *, counter: FlopCounter | None = None
) -> np.ndarray:
    """Replicated mode-``n`` Gram matrix of a distributed tensor.

    Redistributes the unfolding into fiber-local column slabs (skipped
    when ``P_n == 1``), computes the local partial Gram, and allreduces
    the ``I_n x I_n`` partials.  The partial is frozen before the
    allreduce so the collective moves rather than copies it.  Collective
    over the world communicator; the result is bitwise identical on all
    ranks.
    """
    with trace_span("gram", phase=PHASE_GRAM, mode=n,
                    rows=dt.global_shape[n]):
        if dt.grid.dims[n] == 1:
            G_local = tensor_gram(dt.local, n, counter=counter)
        else:
            slab = redistribute_unfolding_to_columns(dt, n)
            G_local = gram_matrix(slab, counter=counter, mode=n)
        G_local.flags.writeable = False
        return dt.comm.allreduce(G_local)
