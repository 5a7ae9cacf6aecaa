"""Data movement between tensor layouts (paper Sec. 3.2).

Two operations live here: seeding a block distribution from data held
only at the root, and the per-mode *unfolding redistribution* at the
heart of the parallel kernels — converting the block layout into a
column distribution of the mode-``n`` unfolding over the mode fiber,
so each fiber rank holds full-height columns ``Y_(n)[:, c0:c1]``.

Beside them, the slice bookkeeping of the block layout: the global
bounds of a rank's block (:func:`block_bounds`), where two blocks
meet (:func:`overlap`) and the part of one that lands in the other
(:func:`cut`), and a rank's block pasted from
such parts (:func:`assemble`).  Checkpoint recovery moves the blocks
of a lost grid to their owners on a new one with them.
"""

from __future__ import annotations

import numpy as np

from ..obs._hook import trace_span
from ..tensor.dense import DenseTensor
from .grid import block_range
from .dtensor import DistributedTensor, GridComms

__all__ = ["distribute_from_root", "redistribute_unfolding_to_columns",
           "block_bounds", "overlap", "cut", "assemble"]

# Reserved tag band for distribution traffic, clear of user tags and of
# the checkpoint layer's buddy exchanges (988_000).
_DIST_TAG = 987_000


def block_bounds(shape, grid, rank: int) -> tuple[tuple[int, int], ...]:
    """Global ``(start, stop)`` per mode of ``rank``'s block of a
    ``shape`` tensor laid out on ``grid``."""
    return tuple(block_range(s, p, c)
                 for s, p, c in zip(shape, grid.dims, grid.coords_of(rank)))


def overlap(bounds, target):
    """The global bounds where two blocks meet, or None when they do not."""
    common = tuple((max(a, c), min(b, d))
                   for (a, b), (c, d) in zip(bounds, target))
    return None if any(a >= b for a, b in common) else common


def cut(bounds, block: np.ndarray, target):
    """The part of ``block``, which sits at global ``bounds``, inside the
    global ``target`` bounds: ``(its bounds, a view)``, or None when the
    two do not meet."""
    common = overlap(bounds, target)
    if common is None:
        return None
    return common, block[tuple(
        slice(x - a, y - a) for (x, y), (a, _) in zip(common, bounds))]


def assemble(comms: GridComms, shape, dtype, pieces) -> DistributedTensor:
    """This rank's block of a ``shape`` tensor on ``comms``, pasted from
    ``pieces``: the ``(bounds, array)`` parts :func:`cut` made for it,
    which tile it."""
    mine = block_bounds(shape, comms.grid, comms.comm.rank)
    local = np.empty([b - a for a, b in mine], dtype=np.dtype(dtype),
                     order="F")
    for bounds, piece in pieces:
        local[tuple(slice(x - a, y - a)
                    for (x, y), (a, _) in zip(bounds, mine))] = piece
    return DistributedTensor(comms, DenseTensor(local), shape)


def distribute_from_root(
    comms: GridComms, full, root: int = 0
) -> DistributedTensor:
    """Scatter a full tensor held only on ``root`` into the block layout.

    ``full`` (ndarray or :class:`DenseTensor`) is consulted only on the
    root rank; every other rank may pass ``None``.  The root peels off
    each rank's block and sends it point-to-point, keeping its own
    slice locally.  Collective over ``comms.comm``.
    """
    comm = comms.comm
    grid = comms.grid
    if comm.rank == root:
        data = full.data if isinstance(full, DenseTensor) else np.asarray(full)
        meta = (tuple(data.shape), data.dtype.str)
    else:
        meta = None
    shape, dtype_str = comm.bcast(meta, root=root)
    if len(shape) != grid.ndim:
        raise ValueError(f"{len(shape)}-mode tensor on a {grid.ndim}-mode grid")

    if comm.rank == root:
        own = None
        for r in range(comm.size):
            block = np.ascontiguousarray(data[tuple(
                slice(*b) for b in block_bounds(shape, grid, r))])
            if r == root:
                own = block
            else:
                block.flags.writeable = False
                comm.send(block, r, tag=_DIST_TAG, copy=False)
        local = np.asfortranarray(own)
    else:
        local = np.asfortranarray(comm.recv(root, tag=_DIST_TAG))
        if local.dtype.str != dtype_str:  # pragma: no cover - defensive
            local = local.astype(np.dtype(dtype_str))
    return DistributedTensor(comms, DenseTensor(local), shape)


def redistribute_unfolding_to_columns(dt: DistributedTensor, n: int) -> np.ndarray:
    """Columns of the global mode-``n`` unfolding owned by this rank.

    Within the mode-``n`` fiber, each rank trades the column-split
    pieces of its local unfolding for the row blocks of its column
    range — one pairwise all-to-all of ``P_n - 1`` messages per rank.
    The returned slab has all ``I_n`` global rows and this fiber rank's
    contiguous share of the columns.  When ``P_n == 1`` the local
    unfolding already is the slab and no messages are exchanged.

    Nothing is staged in another layout: column ranges of the
    Fortran-ordered local unfolding are contiguous and are moved
    (frozen, not copied) as the views they are; only the row-major last
    mode's are strided and get compacted.  A mode-0 piece aliases the
    sender's live block, so what arrives is copied into the slab here
    and never handed out.
    """
    p_n = dt.grid.dims[n]
    M = dt.local.unfold(n)
    if p_n == 1:
        return M
    with trace_span("redistribute", mode=n, rows=M.shape[0], cols=M.shape[1]):
        fiber = dt.comms.fiber(n)
        pieces = [
            M[:, slice(*block_range(M.shape[1], p_n, q))] for q in range(p_n)
        ]
        if not M.flags.f_contiguous:  # the row-major last mode
            pieces = [piece.copy() for piece in pieces]
        # Fiber rank p holds the mode-n row block block_range(I_n, P_n, p)
        # of the global unfolding; stack in rank order to recover all rows.
        return np.concatenate(fiber.alltoall(pieces, copy=False), axis=0)
