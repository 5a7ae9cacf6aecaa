"""Simulated MPI runtime: threads-as-ranks, mailboxes, collectives.

This package stands in for MPI/mpi4py (not available in this
environment): the parallel algorithms are written in pure
message-passing style against :class:`Communicator`, and
:func:`run_spmd` plays the role of ``mpiexec``.  The runtime carries no
performance model; the alpha-beta-gamma model is :mod:`repro.perf`.
"""

from .._lazy import lazy_exports

# `from repro.mpi import run_spmd` loads what it needs, not the package.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".communicator": ("Communicator",),
    ".context": ("SpmdContext",),
    ".launcher": ("run_spmd", "SpmdResult"),
    ".request": ("Request", "waitall"),
    ".tracing": ("CommTrace",),
    ".transport": ("Transport", "available_backends"),
    ".tuning": ("CollectiveTuning",),
})

__all__ = [
    "Communicator",
    "SpmdContext",
    "run_spmd",
    "SpmdResult",
    "Request",
    "waitall",
    "CommTrace",
    "Transport",
    "available_backends",
    "CollectiveTuning",
]
