"""Logical N-dimensional processor grids (paper Sec. 3.1).

A :class:`ProcessorGrid` is pure arithmetic — it knows how ``P`` ranks
are arranged as a ``P_0 x ... x P_{N-1}`` grid and how linear ranks map
to grid coordinates, but holds no communicator.  Pairing a grid with a
world communicator happens in :class:`repro.dist.GridComms`.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import DistributionError
from ..util.validation import resolve_mode_order

__all__ = ["ProcessorGrid", "block_range"]


def block_range(length: int, nprocs: int, proc: int) -> tuple[int, int]:
    """Half-open index range ``[start, stop)`` owned by ``proc``.

    ``length`` elements are distributed over ``nprocs`` processes in
    contiguous blocks whose sizes differ by at most one; the first
    ``length % nprocs`` processes receive the larger blocks (MPI's
    conventional uneven block distribution).  The one partition rule:
    :class:`DistributedTensor` lays tensors out with it and the ring
    collectives of :mod:`repro.mpi` cut their payloads with it, so
    layouts and collective blocks align.
    """
    base, extra = divmod(length, nprocs)
    start = proc * base + min(proc, extra)
    return start, start + base + (1 if proc < extra else 0)


class ProcessorGrid:
    """A ``P_0 x ... x P_{N-1}`` arrangement of ``P`` processes.

    Linearization is mode-0 fastest (column-major, matching the
    tensor's Fortran-order unfoldings): rank ``r`` has coordinate
    ``r % P_0`` in mode 0, then ``(r // P_0) % P_1`` in mode 1, and so
    on.  This is the one rank/coordinate table: :class:`repro.dist.
    GridComms` carves the mode fibers from it, as TuckerMPI does with
    ``MPI_Cart_sub``.
    """

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise DistributionError("processor grid needs at least one mode")
        if any(d < 1 for d in dims):
            raise DistributionError(f"grid dimensions must be positive, got {dims}")
        self._dims = dims

    # ------------------------------------------------------------------
    @classmethod
    def for_size(cls, size: int, ndim: int, mode_order="forward") -> "ProcessorGrid":
        """Balanced ``ndim``-mode grid for ``size`` processes, laid along
        the order ST-HOSVD processes the modes (paper Sec. 4.2).

        Greedily assigns the prime factors of ``size`` (largest first)
        to the currently smallest grid mode, yielding dimensions as
        close to ``size ** (1/ndim)`` as the factorization allows, then
        hands them to the modes of ``mode_order`` (``"forward"``,
        ``"backward"`` or a permutation, as the drivers take it)
        smallest first.  The first-processed mode gets 1 whenever
        ``size`` has fewer prime factors than ``ndim`` and the
        last-processed mode gets the largest factor, so the all-to-all
        redistribution and the TTM reduce-scatter of a distributed mode
        move the tensor after the earlier modes have truncated it, not
        at full size: ``for_size(2, 4)`` is ``1x1x1x2``, ``for_size(8,
        4)`` is ``1x2x2x2``.  Also used by the fault-tolerant drivers to
        re-grid an arbitrary number of surviving ranks after a shrink.
        """
        if size < 1:
            raise DistributionError(f"grid size must be positive, got {size}")
        if ndim < 1:
            raise DistributionError(f"grid needs at least one mode, got {ndim}")
        factors = [1] * ndim
        for f in reversed(_prime_factors(size)):  # ascending -> largest first
            factors[factors.index(min(factors))] *= f
        dims = [1] * ndim
        for mode, factor in zip(resolve_mode_order(mode_order, ndim), sorted(factors)):
            dims[mode] = factor
        return cls(dims)

    # ------------------------------------------------------------------
    @property
    def dims(self) -> tuple[int, ...]:
        """Grid extents ``(P_0, ..., P_{N-1})``."""
        return self._dims

    @property
    def ndim(self) -> int:
        """Number of grid modes (tensor order it distributes)."""
        return len(self._dims)

    @property
    def size(self) -> int:
        """Total number of processes ``P = prod(dims)``."""
        return math.prod(self._dims)

    # ------------------------------------------------------------------
    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of linear ``rank`` (mode 0 varies fastest)."""
        if not 0 <= rank < self.size:
            raise DistributionError(
                f"rank {rank} out of range for size-{self.size} grid"
            )
        coords = []
        for d in self._dims:
            coords.append(rank % d)
            rank //= d
        return tuple(coords)

    def rank_of(self, coords: Sequence[int]) -> int:
        """Linear rank of grid ``coords`` (inverse of :meth:`coords_of`)."""
        coords = tuple(coords)
        if len(coords) != self.ndim:
            raise DistributionError(
                f"expected {self.ndim} coordinates, got {len(coords)}"
            )
        rank = 0
        stride = 1
        for c, d in zip(coords, self._dims):
            if not 0 <= c < d:
                raise DistributionError(f"coordinate {c} out of range for extent {d}")
            rank += c * stride
            stride *= d
        return rank

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProcessorGrid) and other._dims == self._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorGrid({'x'.join(map(str, self._dims))})"


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors
