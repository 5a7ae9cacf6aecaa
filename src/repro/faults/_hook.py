"""The thread-local a rank's fault injector is bound to.

The ``repro.linalg`` kernels poll :func:`current_injector` on every
call, so it lives apart from the injector it returns: this module
imports nothing of the package, and a run with no plan installed pays
one attribute read and never loads :mod:`repro.faults.injector` or
:mod:`repro.faults.plan`.
"""

from __future__ import annotations

import threading

_ACTIVE = threading.local()


def activate(injector: "FaultInjector", rank: int) -> None:
    """Bind ``injector`` to the calling (rank) thread for kernel hooks."""
    _ACTIVE.injector = injector
    _ACTIVE.rank = rank


def deactivate() -> None:
    """Unbind the calling thread's injector."""
    _ACTIVE.injector = None
    _ACTIVE.rank = None


def current_injector() -> "FaultInjector | None":
    """The injector bound to this thread, or None (one attribute read)."""
    return getattr(_ACTIVE, "injector", None)


def current_fault_rank() -> int | None:
    """World rank bound to this thread by :func:`activate`, or None."""
    return getattr(_ACTIVE, "rank", None)
