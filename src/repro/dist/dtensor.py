"""Block-distributed dense tensors over a processor grid (Sec. 3.1).

``X`` of global shape ``(I_0, ..., I_{N-1})`` on a ``P_0 x ... x
P_{N-1}`` grid gives the rank at coordinates ``(p_0, ..., p_{N-1})``
the block ``X[range(I_0,P_0,p_0), ...]`` — contiguous slabs whose
extents differ by at most one along each mode (:func:`block_range`).
:class:`GridComms` bundles the world communicator with the grid and
caches the per-mode fiber communicators the kernels need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import DistributionError
from ..tensor.dense import DenseTensor, sum_of_squares
from .distribution import block_range
from .grid import ProcessorGrid

if TYPE_CHECKING:  # the layout is importable without the runtime
    from ..mpi.communicator import Communicator

__all__ = ["GridComms", "DistributedTensor"]


class GridComms:
    """A world communicator paired with a processor grid.

    Eagerly builds the mode fibers: ``fiber(n)`` is the communicator
    connecting the ``P_n`` ranks that differ only in grid coordinate
    ``n`` — the group that cooperates on mode-``n`` unfoldings.
    Construction is collective over ``comm``: one split rendezvous
    carves every mode's fiber.
    """

    def __init__(self, comm: Communicator, grid: ProcessorGrid):
        if grid.size != comm.size:
            raise DistributionError(
                f"grid {grid.dims} needs {grid.size} ranks, "
                f"communicator has {comm.size}"
            )
        self._comm = comm
        self._grid = grid
        # Collective and deterministic: every rank builds every fiber
        # here, so later (possibly data-dependent) fiber uses need no
        # coordination.  A fiber's color is the rank at its coordinate-0
        # end, its key this rank's place along it.
        coords = grid.coords_of(comm.rank)
        self._fibers = tuple(comm._split(*(
            (grid.rank_of(coords[:n] + (0,) + coords[n + 1:]), coords[n])
            for n in range(grid.ndim))))

    # ------------------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        """The world communicator spanning the whole grid."""
        return self._comm

    @property
    def grid(self) -> ProcessorGrid:
        """The logical processor grid this rank belongs to."""
        return self._grid

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's grid coordinates (mode 0 varies fastest)."""
        return self._grid.coords_of(self._comm.rank)

    def fiber(self, n: int) -> Communicator:
        """Mode-``n`` fiber communicator through this rank.

        Its rank equals this process's grid coordinate ``n`` and its
        size is ``P_n``; ranks in a fiber hold the blocks that tile a
        full mode-``n`` slab of the global tensor.
        """
        if not 0 <= n < self._grid.ndim:
            raise DistributionError(
                f"mode {n} out of range for {self._grid.ndim}-mode grid"
            )
        return self._fibers[n]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridComms(grid={self._grid!r}, rank={self._comm.rank})"


class _DetachedGridComms:
    """Stand-in for :class:`GridComms` after a process-boundary crossing.

    A live communicator graph cannot be pickled (the ``procs``
    transport ships rank return values back to the master process), so
    a pickled :class:`DistributedTensor` detaches: the grid layout,
    this rank's coordinates, and the local block survive, while
    anything that would communicate raises :class:`DistributionError`
    instead of hanging or corrupting state.
    """

    def __init__(self, dims: Sequence[int], rank: int):
        self._grid = ProcessorGrid(tuple(dims))
        self._rank = int(rank)

    @property
    def grid(self) -> ProcessorGrid:
        return self._grid

    @property
    def coords(self) -> tuple[int, ...]:
        return self._grid.coords_of(self._rank)

    def _no_world(self):
        raise DistributionError(
            "this DistributedTensor was detached from its SPMD world when "
            "it crossed a process boundary (e.g. returned from "
            "run_spmd(backend='procs')); layout metadata and the local "
            "block remain usable, but collective operations need a live "
            "communicator — run them inside the rank program instead"
        )

    @property
    def comm(self):
        self._no_world()

    def fiber(self, n: int):
        self._no_world()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_DetachedGridComms(grid={self._grid!r}, rank={self._rank})"


class DistributedTensor:
    """A dense tensor block-distributed over a processor grid.

    Each rank stores one contiguous block (a :class:`DenseTensor`) of
    the global array; the mapping from grid coordinates to index ranges
    is :func:`repro.dist.block_range` per mode.  All methods that
    communicate are collective over the world communicator.
    """

    def __init__(self, comms: GridComms, local, global_shape: Sequence[int]):
        global_shape = tuple(int(s) for s in global_shape)
        if len(global_shape) != comms.grid.ndim:
            raise DistributionError(
                f"{len(global_shape)}-mode tensor on a "
                f"{comms.grid.ndim}-mode grid"
            )
        if not isinstance(local, DenseTensor):
            local = DenseTensor(np.asarray(local))
        expected = tuple(
            block_range(s, p, c)[1] - block_range(s, p, c)[0]
            for s, p, c in zip(global_shape, comms.grid.dims,
                               comms.grid.coords_of(comms.comm.rank))
        )
        if local.shape != expected:
            raise DistributionError(
                f"rank {comms.comm.rank} expected local block {expected} "
                f"for global {global_shape}, got {local.shape}"
            )
        self._comms = comms
        self._local = local
        self._global_shape = global_shape

    # ------------------------------------------------------------------
    @classmethod
    def from_full(cls, comms: GridComms, full) -> "DistributedTensor":
        """Distribute a replicated full tensor: each rank slices its block.

        ``full`` must be the same array on every rank (no communication
        happens — each rank just keeps its own slice).  Use
        :func:`repro.dist.distribute_from_root` when only the root
        holds the data.
        """
        data = full.data if isinstance(full, DenseTensor) else np.asarray(full)
        grid = comms.grid
        if data.ndim != grid.ndim:
            raise DistributionError(
                f"{data.ndim}-mode tensor on a {grid.ndim}-mode grid"
            )
        coords = grid.coords_of(comms.comm.rank)
        slices = tuple(
            slice(*block_range(s, p, c))
            for s, p, c in zip(data.shape, grid.dims, coords)
        )
        block = np.asfortranarray(data[slices])
        return cls(comms, DenseTensor(block), data.shape)

    # ------------------------------------------------------------------
    @property
    def comms(self) -> GridComms:
        """The grid/communicator bundle this tensor lives on."""
        return self._comms

    @property
    def comm(self) -> Communicator:
        """The world communicator (all grid ranks)."""
        return self._comms.comm

    @property
    def grid(self) -> ProcessorGrid:
        """The processor grid describing the distribution."""
        return self._comms.grid

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's grid coordinates."""
        return self._comms.coords

    @property
    def local(self) -> DenseTensor:
        """This rank's local block as a :class:`DenseTensor`."""
        return self._local

    @property
    def ndim(self) -> int:
        """Number of tensor modes."""
        return len(self._global_shape)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the local block (identical on all ranks)."""
        return self._local.dtype

    @property
    def global_shape(self) -> tuple[int, ...]:
        """Shape of the full (undistributed) tensor."""
        return self._global_shape

    @property
    def global_size(self) -> int:
        """Total number of elements of the full tensor."""
        out = 1
        for s in self._global_shape:
            out *= s
        return out

    # ------------------------------------------------------------------
    def local_slices(self) -> tuple[slice, ...]:
        """Global index slices covered by this rank's block, per mode."""
        return tuple(
            slice(*block_range(s, p, c))
            for s, p, c in zip(self._global_shape, self.grid.dims, self.coords)
        )

    def astype(self, precision) -> "DistributedTensor":
        """Copy in another precision (dtype, or name ``"single"``/``"double"``)."""
        if isinstance(precision, str):
            precision = {"single": np.float32, "double": np.float64}.get(
                precision, precision
            )
        return DistributedTensor(
            self._comms, self._local.astype(precision), self._global_shape
        )

    def norm_squared(self) -> float:
        """Global squared Frobenius norm, identical on every rank.

        Local blocks accumulate in float64 and a deterministic
        allreduce combines them, so the result is bitwise replicated.
        """
        local = np.array([sum_of_squares(self._local.flat_view())])
        local.flags.writeable = False
        return float(self.comm.allreduce(local)[0])

    def norm(self) -> float:
        """Global Frobenius norm (square root of :meth:`norm_squared`)."""
        return float(np.sqrt(self.norm_squared()))

    def gather(self) -> DenseTensor:
        """Reassemble the full tensor on every rank (allgather of blocks).

        Intended for tests, small cores, and checkpoint recovery — the
        result is the complete global array, so it defeats the memory
        scaling the distribution exists for.
        """
        payload = (self.local_slices(), np.ascontiguousarray(self._local.data))
        pieces = self.comm.allgather(payload)
        # The blocks tile the tensor, so every element is written below.
        full = np.empty(self._global_shape, dtype=self.dtype, order="F")
        for slices, block in pieces:
            full[tuple(slices)] = block
        return DenseTensor(full)

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Detach for pickling: keep layout + local block, drop the world."""
        if isinstance(self._comms, _DetachedGridComms):
            rank = self._comms._rank
        else:
            rank = self._comms.comm.rank
        return {
            "dims": self.grid.dims,
            "rank": rank,
            "local": np.asarray(self._local.data),
            "global_shape": self._global_shape,
        }

    def __setstate__(self, state: dict) -> None:
        self._comms = _DetachedGridComms(state["dims"], state["rank"])
        self._local = DenseTensor(state["local"])
        self._global_shape = tuple(state["global_shape"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedTensor(global={self._global_shape}, "
            f"local={self._local.shape}, grid={self.grid.dims})"
        )
