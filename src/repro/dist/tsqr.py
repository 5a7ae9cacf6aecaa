"""Butterfly TSQR reduction of per-rank triangles (paper Sec. 3.3).

Each rank starts from the ``R`` factor of its local columns; pairwise
``tpqrt``-style reductions combine triangles until every rank holds the
``R`` factor of the full matrix.  The butterfly exchange pattern gives
all ranks the final triangle in ``log2 P`` rounds with no broadcast,
and the fixed stacking order (lower-ranked partner on top) makes the
result *bitwise identical* on every rank — the property the drivers
rely on to keep factor matrices replicated without extra collectives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import DistributionError
from ..instrument import FlopCounter
from ..linalg.tpqrt import tpqrt_reduce_triangles

if TYPE_CHECKING:
    from ..mpi.communicator import Communicator

__all__ = ["butterfly_tsqr_reduce"]

# Reserved tag band: one tag per butterfly round plus one for folding
# the non-power-of-two excess ranks in and out.
_TSQR_TAG = 986_000


def butterfly_tsqr_reduce(
    comm: Communicator,
    R: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """Reduce per-rank ``k x k`` upper triangles to the global ``R``.

    For ``P`` a power of two this is exactly ``log2 P`` sendrecv rounds
    per rank; otherwise the ``P - m`` excess ranks (``m`` the largest
    power of two ``<= P``) first fold their triangles into partners,
    sit out the butterfly, and receive the final triangle back.  The
    reduction order is deterministic, so all ranks return bitwise
    identical arrays.  Flops are charged to ``counter``.
    """
    R = np.ascontiguousarray(np.triu(R))
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DistributionError(
            f"butterfly reduction needs square triangles, got {R.shape}"
        )
    p = comm.size
    if p == 1:
        return R
    me = comm.rank
    m = 1 << (p.bit_length() - 1)  # largest power of two <= p
    excess = p - m

    def _combine(mine: np.ndarray, other: np.ndarray, low_rank: int) -> np.ndarray:
        # Deterministic stacking: the lower-ranked contributor's triangle
        # goes on top, so both sides of an exchange compute the same
        # reduction bit-for-bit.
        top, bottom = (mine, other) if low_rank == me else (other, mine)
        return tpqrt_reduce_triangles(top, bottom, counter=counter, mode=mode)

    if me >= m:
        # Excess rank: fold in, wait for the reduced result.
        comm.send(R, me - m, tag=_TSQR_TAG)
        return comm.recv(me - m, tag=_TSQR_TAG + 99)

    if me < excess:
        folded = comm.recv(me + m, tag=_TSQR_TAG)
        R = _combine(R, folded, me)

    rounds = m.bit_length() - 1  # log2 m
    for r in range(rounds):
        partner = me ^ (1 << r)
        # Moved, not copied: R is this function's own array (the triu
        # copy or a fresh reduction result) and is only read from here on.
        other = comm.sendrecv(R, partner, tag=_TSQR_TAG + 1 + r, copy=False)
        R = _combine(R, other, min(me, partner))

    if me < excess:
        comm.send(R, me + m, tag=_TSQR_TAG + 99)
    return R
