"""Parallel ST-HOSVD on the simulated MPI runtime (Secs. 3.4-3.5).

The SPMD driver mirrors the sequential algorithm mode for mode, calling
the distributed kernels: parallel TensorLQ with the butterfly TSQR (or
the parallel Gram baseline), a redundant SVD/EVD of the replicated small
factor, rank selection from the (replicated) singular values, and the
parallel TTM truncation with its fiber reduce-scatter.  Factor matrices
end the run replicated on every rank; the core tensor keeps the input's
block distribution, exactly as TuckerMPI specifies.

Run it from an SPMD function launched with :func:`repro.mpi.run_spmd`:

>>> def program(comm):
...     comms = GridComms(comm, ProcessorGrid((1, 2, 2)))
...     dt = DistributedTensor.from_full(comms, X)
...     return sthosvd_parallel(dt, tol=1e-4, method="qr")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..instrument import FlopCounter, PhaseTimer
from ..precision import Precision, resolve_precision
from ..dist.dtensor import DistributedTensor
from ..util.validation import resolve_mode_order
from .modeloop import ModeLoop, open_loop, truncated_loop
from .truncation import truncation_rel_error
from .tucker import TuckerTensor

__all__ = ["ParallelSthosvdResult", "sthosvd_parallel"]


@dataclass
class ParallelSthosvdResult:
    """Per-rank result of a parallel ST-HOSVD run; ``norm_x`` comes from
    the first processed mode's replicated spectrum (no pass, no
    allreduce, same bits on every rank), within ``64 eps`` of
    ``||X||^2`` when squared.

    ``core`` is this rank's block of the distributed core tensor;
    ``factors`` are replicated.  ``to_tucker()`` assembles a full
    :class:`TuckerTensor` (collective — gathers the core).
    """

    core: DistributedTensor
    factors: tuple[np.ndarray, ...]
    sigmas: dict[int, np.ndarray]
    mode_order: tuple[int, ...]
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    numeric_recoveries: list = field(default_factory=list)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.global_shape

    def estimated_rel_error(self) -> float:
        """Truncation-based error estimate (see sequential counterpart)."""
        return truncation_rel_error(self.sigmas, self.ranks, self.norm_x)

    @classmethod
    def _from_loop(cls, loop: ModeLoop, core: DistributedTensor, order):
        return cls(
            core=core,
            factors=tuple(loop.factors),
            sigmas=loop.sigmas,
            mode_order=tuple(order),
            method=loop.method,
            precision=resolve_precision(core.dtype),
            norm_x=loop.norm_x,
            flops=loop.counter,
            timer=loop.timer,
            numeric_recoveries=loop.recoveries,
        )

    def compression_ratio(self) -> float:
        """Original element count over stored parameters (global)."""
        full = 1
        for U in self.factors:
            full *= U.shape[0]
        stored = self.core.global_size + sum(int(U.size) for U in self.factors)
        return full / stored

    def to_tucker(self) -> TuckerTensor:
        """Assemble a replicated TuckerTensor (collective: gathers the core)."""
        return TuckerTensor(core=self.core.gather(), factors=self.factors)


def sthosvd_parallel(
    dt: DistributedTensor,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    mode_order="forward",
    svd_strategy: str = "replicated",
    progress: Callable[[dict], None] | None = None,
    checkpoint=None,
    resume: dict | None = None,
) -> ParallelSthosvdResult:
    """Distributed ST-HOSVD (collective over ``dt``'s communicator).

    Arguments match :func:`repro.core.sthosvd.sthosvd`; the working
    precision is the distributed tensor's dtype (convert with
    ``DistributedTensor.astype`` beforehand for the single-precision
    variants).  ``svd_strategy`` selects how the per-mode factors
    replicate: ``"replicated"`` (paper default, redundant decomposition
    on every rank) or ``"root_bcast"`` (decompose once on rank 0, then
    broadcast via the size-adaptive collective engine; bitwise-identical
    factors).

    ``progress`` is called on rank 0 only, once per completed mode,
    with ``{"step", "total_steps", "mode", "rank", "ranks", "seconds",
    "elapsed"}`` (``seconds`` for this mode, ``elapsed`` since the run
    started) — the same event shape the out-of-core driver emits.

    ``checkpoint`` is an optional
    :class:`~repro.faults.DistributedCheckpoint`: the partially
    truncated tensor plus the replicated resume state is saved after
    every completed mode (and on entry, so a crash in mode 0 — or on
    the first mode after a recovery — is also covered).  ``resume`` is
    the ``meta`` dict recovered from such a checkpoint; ``dt`` must
    then be the recovered (partially truncated) tensor, redistributed
    over the surviving ranks.  :func:`repro.core.ft.
    sthosvd_fault_tolerant` drives the full
    crash-shrink-recover-resume loop.
    """
    order = resolve_mode_order(mode_order, dt.ndim)
    # On resume the original tensor's norm drives the error budget; the
    # recovered `dt` is already truncated, so never recompute it.  A
    # checkpoint taken before the first mode completed stored None: its
    # `dt` still is the input, and the first solve supplies the norm.
    loop = open_loop(
        dt, method=method, tol=tol, ranks=ranks, svd_strategy=svd_strategy,
        norm_sq=None if resume is None else resume["norm_x_sq"],
        progress=progress if dt.comm.rank == 0 else None,
    )
    start = 0
    if resume is not None:
        start = int(resume["completed_steps"])
        loop.factors = [None if f is None else np.asarray(f)
                        for f in resume["factors"]]
        loop.sigmas = {int(k): np.asarray(v) for k, v in resume["sigmas"].items()}
        loop.recoveries = list(resume.get("numeric_recoveries", []))

    def save_step(completed: int, current: DistributedTensor) -> None:
        checkpoint.save(current, completed, meta={
            "completed_steps": completed,
            "factors": list(loop.factors),
            "sigmas": dict(loop.sigmas),
            "norm_x_sq": loop.norm_sq,
            "numeric_recoveries": list(loop.recoveries),
        })

    if checkpoint is not None:
        # Entry save doubles as the post-recovery re-replication: on a
        # fresh epoch every surviving rank re-seeds its buddy, so a
        # *second* failure still finds a complete step.
        save_step(start, dt)
    core = truncated_loop(loop, dt, order, start=start,
                          after_mode=save_step if checkpoint is not None else None)
    return ParallelSthosvdResult._from_loop(loop, core, order)
