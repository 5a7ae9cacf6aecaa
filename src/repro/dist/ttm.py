"""Distributed truncating TTM (paper Sec. 3.4).

After a mode's factor ``U_n`` is known, the tensor shrinks:
``Y <- Y x_n U_n^T``.  Each rank multiplies its local block by its row
slice of ``U_n``, producing a partial result for the *full* truncated
mode extent; the mode fiber then reduce-scatters the partials so every
rank ends up with its block of the shrunk tensor — back in the standard
block distribution, ready for the next mode.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistributionError
from ..instrument import FlopCounter, PHASE_TTM
from ..obs._hook import trace_span
from ..tensor.dense import DenseTensor
from ..tensor.ttm import ttm, ttm_flops
from .grid import block_range
from .dtensor import DistributedTensor

__all__ = ["par_ttm_truncate"]


def par_ttm_truncate(
    dt: DistributedTensor,
    U: np.ndarray,
    n: int,
    *,
    counter: FlopCounter | None = None,
) -> DistributedTensor:
    """Apply ``U^T`` along mode ``n``, returning the shrunk distribution.

    ``U`` is the replicated ``I_n x R_n`` factor; the result has global
    mode-``n`` extent ``R_n`` and the same block layout rule on the
    same grid.  Local partials are combined with a fiber
    reduce-scatter (skipped when ``P_n == 1``).  Each destination's
    piece is its own product with the matching columns of ``U``: born
    Fortran-contiguous, moved (thereby frozen) rather than copied, and
    the reduced block already is the next mode's local block.  Collective.
    """
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != dt.global_shape[n]:
        raise DistributionError(
            f"factor must have {dt.global_shape[n]} rows for mode {n}, "
            f"got {U.shape}"
        )
    p_n = dt.grid.dims[n]
    r_out = U.shape[1]
    new_shape = list(dt.global_shape)
    new_shape[n] = r_out
    with trace_span("ttm", phase=PHASE_TTM, mode=n, out_dim=r_out):
        r0, r1 = block_range(U.shape[0], p_n, dt.coords[n])
        pieces = [
            ttm(dt.local, U[r0:r1, slice(*block_range(r_out, p_n, q))], n,
                transpose=True).data
            for q in range(p_n)
        ]
        if counter is not None:
            counter.add(ttm_flops(dt.local.shape, n, r_out), phase=PHASE_TTM,
                        mode=n)
        block = pieces[0]
        if p_n > 1:
            block = dt.comms.fiber(n).reduce_scatter(pieces, copy=False)
        return DistributedTensor(dt.comms, DenseTensor(block), tuple(new_shape))
