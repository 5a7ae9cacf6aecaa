"""The one size crossover of collective dispatch: allreduce.

Every collective runs one array schedule, the one the paper's cost
analysis (Sec. 3.5) assumes for its role: the binomial tree for
``bcast``, the ring for ``allgather``, the pairwise exchange for
``alltoall`` and the ring shift-accumulate for ``reduce_scatter``
(generic payloads, which cannot be sliced, take the alltoall + fold).
``allreduce`` alone chooses by size, because the Gram matrices it
reduces span both regimes: recursive doubling (``ceil(log2 P)``
exchange rounds, the short-message champion) below
:attr:`~CollectiveTuning.allreduce_ring_min_bytes`, and the ring
reduce-scatter + allgather (``2 (P-1)/P`` of the payload,
bandwidth-optimal) at and above it; reduce+broadcast only for payloads
the array algorithms cannot slice.

The threshold is fixed: the communicator dispatches through one
module-level :class:`CollectiveTuning`, and ``run_spmd`` records it in
``run_config["tuning"]``.  ``benchmarks/bench_collectives.py`` measures
the crossover it stands for on the threaded runtime.

The decision is a pure function of ``(P, payload)``, so every rank of a
communicator reaches the same choice from its own arguments — the SPMD
requirement that makes dispatch deadlock-free (payload shapes must match
across ranks, as MPI already requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["CollectiveTuning"]


@dataclass(frozen=True)
class CollectiveTuning:
    """The allreduce crossover (bytes of the per-rank payload)."""

    #: allreduce switches recursive doubling -> ring at this payload size.
    allreduce_ring_min_bytes: int = 1 << 18

    def allreduce_algorithm(self, p: int, value: Any) -> str:
        """Pick ``'tree' | 'recursive_doubling' | 'ring'`` for a payload."""
        if not isinstance(value, np.ndarray):
            return "tree"  # generic payloads cannot be sliced or exchanged
        if p > 1 and value.nbytes >= self.allreduce_ring_min_bytes:
            return "ring"
        return "recursive_doubling"
