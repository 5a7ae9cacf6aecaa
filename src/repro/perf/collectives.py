"""Modeled costs of the collective schedules the runtime executes.

Closed-form alpha-beta critical-path costs of the one schedule each
collective of :class:`~repro.mpi.communicator.Communicator` runs — the
binomial-tree bcast, the ring allgather, the pairwise all-to-all, the
ring reduce-scatter — and of the three allreduce schedules, used by the
ablation benches to show *why* each fills its role (butterfly for TSQR,
pairwise all-to-all for redistribution, recursive doubling vs. ring for
the Gram reductions).

:func:`dispatched_allreduce_cost` prices the allreduce schedule the
engine selects for a given ``(p, nbytes)`` through the same
:class:`~repro.mpi.tuning.CollectiveTuning` rule, so modeled breakdowns
stay faithful to the executed schedule.

All formulas give seconds for a payload of ``nbytes`` on ``p`` ranks;
``alpha``/``beta`` come from a machine model's :class:`CommCosts`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..mpi.tuning import CollectiveTuning
from .machine import CommCosts

__all__ = [
    "cost_bcast_binomial",
    "cost_allreduce_tree",
    "cost_allreduce_recursive_doubling",
    "cost_allreduce_ring",
    "cost_allgather_ring",
    "cost_alltoall_pairwise",
    "cost_reduce_scatter_ring",
    "dispatched_allreduce_cost",
]


def _check(p: int, nbytes: float) -> None:
    if p < 1:
        raise ConfigurationError("p must be positive")
    if nbytes < 0:
        raise ConfigurationError("payload size cannot be negative")


def cost_bcast_binomial(p: int, nbytes: float, comm: CommCosts) -> float:
    """Binomial-tree broadcast: ``ceil(log2 p)`` rounds of the full payload."""
    _check(p, nbytes)
    steps = math.ceil(math.log2(p)) if p > 1 else 0
    return steps * (comm.alpha + comm.beta * nbytes)


def cost_allreduce_tree(p: int, nbytes: float, comm: CommCosts) -> float:
    """Reduce-to-root then broadcast: ``2 ceil(log2 p)`` payload rounds."""
    _check(p, nbytes)
    steps = math.ceil(math.log2(p)) if p > 1 else 0
    return 2 * steps * (comm.alpha + comm.beta * nbytes)


def cost_allreduce_recursive_doubling(p: int, nbytes: float, comm: CommCosts) -> float:
    """Recursive doubling: ``ceil(log2 p)`` exchange rounds of the payload."""
    _check(p, nbytes)
    steps = math.ceil(math.log2(p)) if p > 1 else 0
    return steps * (comm.alpha + comm.beta * nbytes)


def cost_allreduce_ring(p: int, nbytes: float, comm: CommCosts) -> float:
    """Ring reduce-scatter + ring allgather (bandwidth-optimal, long msgs)."""
    _check(p, nbytes)
    if p == 1:
        return 0.0
    return 2 * ((p - 1) * comm.alpha + comm.beta * nbytes * (p - 1) / p)


def cost_allgather_ring(p: int, nbytes_per_rank: float, comm: CommCosts) -> float:
    """Ring allgather of one slot per rank: P-1 rounds of one slot."""
    _check(p, nbytes_per_rank)
    if p == 1:
        return 0.0
    return (p - 1) * (comm.alpha + comm.beta * nbytes_per_rank)


def cost_alltoall_pairwise(p: int, nbytes_total: float, comm: CommCosts) -> float:
    """Pairwise-exchange all-to-all: P-1 rounds of one slot (total/P each).

    This is the schedule the paper's redistribution analysis assumes
    (Sec. 3.5): ``P_n - 1`` messages per rank, each 1/P of the local data.
    """
    _check(p, nbytes_total)
    if p == 1:
        return 0.0
    return (p - 1) * (comm.alpha + comm.beta * nbytes_total / p)


def cost_reduce_scatter_ring(p: int, nbytes_total: float, comm: CommCosts) -> float:
    """Ring reduce-scatter: P-1 rounds of one slot (total/P each)."""
    _check(p, nbytes_total)
    if p == 1:
        return 0.0
    return (p - 1) * (comm.alpha + comm.beta * nbytes_total / p)


def dispatched_allreduce_cost(p: int, nbytes: float, comm: CommCosts) -> float:
    """Modeled cost of the allreduce schedule the engine selects for an
    ``nbytes`` array payload (recursive doubling or ring)."""
    # A zero-strided stand-in array of nbytes, priced by the engine's rule.
    probe = np.broadcast_to(np.float64(0.0), (int(nbytes) // 8,))
    if CollectiveTuning().allreduce_algorithm(p, probe) == "ring":
        return cost_allreduce_ring(p, nbytes, comm)
    return cost_allreduce_recursive_doubling(p, nbytes, comm)
