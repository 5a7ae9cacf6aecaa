"""Simulated MPI runtime: threads-as-ranks, mailboxes, collectives, clocks.

This package stands in for MPI/mpi4py (not available in this
environment): the parallel algorithms are written in pure
message-passing style against :class:`Communicator`, and
:func:`run_spmd` plays the role of ``mpiexec``.  An optional
alpha-beta-gamma :class:`CostModel` gives every rank a logical clock
advanced by the actual message schedule, which is what the scaling
benchmarks report.
"""

from .._lazy import lazy_exports

# `from repro.mpi.costmodel import CostModel` (the performance model) or
# `from repro.mpi import run_spmd` loads what it needs, not the package.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".communicator": ("Communicator",),
    ".context": ("SpmdContext",),
    ".costmodel": ("CommCosts", "ComputeRates", "CostModel", "RankClock"),
    ".launcher": ("run_spmd", "SpmdResult"),
    ".request": ("Request", "waitall"),
    ".tracing": ("CommTrace",),
    ".transport": ("Transport", "available_backends"),
    ".tuning": ("CollectiveTuning",),
    ".algorithms": (
        "allreduce_recursive_doubling", "allgather_ring",
        "bcast_scatter_allgather", "reduce_scatter_ring",
    ),
})

__all__ = [
    "Communicator",
    "SpmdContext",
    "CommCosts",
    "ComputeRates",
    "CostModel",
    "RankClock",
    "run_spmd",
    "SpmdResult",
    "Request",
    "waitall",
    "CommTrace",
    "Transport",
    "available_backends",
    "CollectiveTuning",
    "allreduce_recursive_doubling",
    "allgather_ring",
    "bcast_scatter_allgather",
    "reduce_scatter_ring",
]
