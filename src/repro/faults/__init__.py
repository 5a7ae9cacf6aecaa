"""Deterministic fault injection and fault tolerance for the SPMD runtime.

Three layers (see ``docs/fault-tolerance.md``):

* :class:`FaultPlan` / :class:`FaultInjector` — a seeded, replayable
  schedule of rank crashes, message faults, and kernel corruption,
  installed via ``run_spmd(faults=plan)``.
* ``run_spmd(resilience=True)`` — the tolerance (sequence numbers,
  checksums, a bounded retry) the communicator uses to survive message
  faults.
* :class:`DistributedCheckpoint` — in-memory, buddy-replicated
  checkpoints that let ``sthosvd``/``hooi`` on a distributed tensor
  resume on a shrunk communicator after a rank death.

The ``repro.linalg`` kernels poll :func:`current_injector` (one
thread-local read) from ``faults/_hook.py`` directly: with no plan
installed a solve never loads the plan, the injector or the network
model, which come in on first use like every name here.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "._hook": ("current_injector",),
    ".injector": ("FaultInjector",),
    ".network": ("NetworkFaultState",),
    ".plan": ("CrashRule", "FaultEvent", "FaultPlan", "KernelFaultRule",
              "MessageFaultRule", "NetworkFaultRule"),
    ".checkpoint": ("DistributedCheckpoint",),
})

__all__ = [
    "FaultPlan",
    "CrashRule",
    "MessageFaultRule",
    "KernelFaultRule",
    "NetworkFaultRule",
    "NetworkFaultState",
    "FaultEvent",
    "FaultInjector",
    "current_injector",
    "DistributedCheckpoint",
]
