"""Cartesian topology communicator (MPI_Cart_* equivalents).

TuckerMPI organizes its processes with MPI's Cartesian topology API:
``MPI_Cart_create`` to build the grid, ``MPI_Cart_sub`` to carve out the
per-mode processor fibers, ``MPI_Cart_shift`` for neighbor exchanges.
:class:`CartComm` provides those on top of the simulated runtime, and
:class:`repro.dist.dtensor.GridComms` is its thin consumer.

Linearization is mode-0-fastest, consistent with tensor layout and
:class:`repro.dist.grid.ProcessorGrid` (which remains the pure-math
view; ``CartComm`` owns the communication side).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import CommunicatorError, DistributionError
from .communicator import Communicator

__all__ = ["CartComm"]


class CartComm:
    """A communicator with an attached Cartesian grid topology."""

    def __init__(self, comm: Communicator, dims: Sequence[int], *,
                 periodic: Sequence[bool] | None = None) -> None:
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims) or not dims:
            raise DistributionError(f"grid dims must be positive, got {dims}")
        size = 1
        for d in dims:
            size *= d
        if size != comm.size:
            raise DistributionError(
                f"grid {dims} needs {size} ranks, communicator has {comm.size}"
            )
        self.comm = comm
        self.dims = dims
        self.periodic = tuple(bool(p) for p in (periodic or (False,) * len(dims)))
        if len(self.periodic) != len(dims):
            raise DistributionError("periodic flags must match grid dimensionality")

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """MPI_Cart_coords."""
        if not 0 <= rank < self.size:
            raise DistributionError(f"rank {rank} out of range")
        out = []
        for d in self.dims:
            out.append(rank % d)
            rank //= d
        return tuple(out)

    def rank_of(self, coords: Sequence[int]) -> int:
        """MPI_Cart_rank (with periodic wraparound where enabled)."""
        if len(coords) != self.ndim:
            raise DistributionError(f"expected {self.ndim} coordinates")
        r = 0
        stride = 1
        for c, d, per in zip(coords, self.dims, self.periodic):
            c = int(c)
            if per:
                c %= d
            elif not 0 <= c < d:
                raise DistributionError(f"coordinate {c} out of range for dim {d}")
            r += c * stride
            stride *= d
        return r

    @property
    def coords(self) -> tuple[int, ...]:
        return self.coords_of(self.rank)

    # ------------------------------------------------------------------
    def shift(self, dim: int, disp: int = 1) -> tuple[int | None, int | None]:
        """MPI_Cart_shift: (source, destination) ranks for a shift.

        Returns ``None`` in a slot that falls off a non-periodic edge
        (MPI's ``MPI_PROC_NULL``).
        """
        if not 0 <= dim < self.ndim:
            raise DistributionError(f"dimension {dim} out of range")
        me = list(self.coords)

        def neighbour(offset: int) -> int | None:
            c = me[dim] + offset
            if self.periodic[dim]:
                c %= self.dims[dim]
            elif not 0 <= c < self.dims[dim]:
                return None
            coords = list(me)
            coords[dim] = c
            return self.rank_of(coords)

        return neighbour(-disp), neighbour(disp)

    def sub(self, keep: Sequence[bool]) -> "CartComm":
        """MPI_Cart_sub: slice the grid, keeping the flagged dimensions.

        Ranks sharing coordinates in the *dropped* dimensions form a new
        Cartesian communicator over the kept ones — the operation that
        produces mode fibers (keep exactly one dimension).  Collective.
        """
        return self._subs([keep])[0]

    def _subs(self, keeps: Sequence[Sequence[bool]]) -> list["CartComm"]:
        """:meth:`sub` for each of ``keeps``, carved in one split
        rendezvous (TuckerMPI builds its per-mode grid communicators
        once, when the grid is created).  Collective."""
        pairs, shapes = [], []
        for keep in keeps:
            keep = tuple(bool(k) for k in keep)
            if len(keep) != self.ndim:
                raise DistributionError(
                    "keep flags must match grid dimensionality")
            if not any(keep):
                raise CommunicatorError("cannot drop every dimension")
            # color: linearized coords in the dropped dims; key: in the
            # kept ones, preserving order
            color = key = 0
            color_stride = key_stride = 1
            for c, d, k in zip(self.coords, self.dims, keep):
                if k:
                    key += c * key_stride
                    key_stride *= d
                else:
                    color += c * color_stride
                    color_stride *= d
            pairs.append((color, key))
            shapes.append((
                tuple(d for d, k in zip(self.dims, keep) if k),
                tuple(p for p, k in zip(self.periodic, keep) if k),
            ))
        return [CartComm(sub, dims, periodic=periodic)
                for sub, (dims, periodic)
                in zip(self.comm._split(*pairs), shapes)]

    def fiber(self, dim: int) -> "CartComm":
        """The mode-``dim`` processor fiber through this rank."""
        keep = [False] * self.ndim
        keep[dim] = True
        return self.sub(keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartComm(dims={'x'.join(map(str, self.dims))}, rank={self.rank})"
