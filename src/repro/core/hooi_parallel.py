"""Distributed HOOI on the simulated MPI runtime.

The alternating refinement of :mod:`repro.core.hooi` built from the
distributed kernels: mode contractions via the parallel TTM (fiber
reduce-scatter), per-mode SVDs via parallel QR-SVD/Gram-SVD (butterfly
TSQR or Gram allreduce + redundant small decomposition), and fit
tracking via the distributed norm.  All reductions are deterministic, so
factor matrices and the convergence decision are bitwise replicated —
no rank ever disagrees about when to stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import FlopCounter, PhaseTimer
from ..precision import Precision, resolve_precision
from ..dist.dtensor import DistributedTensor
from .modeloop import hooi_sweeps, measure_norm, open_loop
from .sthosvd_parallel import sthosvd_parallel
from .tucker import TuckerTensor

__all__ = ["ParallelHooiResult", "hooi_parallel"]


@dataclass
class ParallelHooiResult:
    """Per-rank result of a distributed HOOI run (factors replicated)."""

    core: DistributedTensor
    factors: tuple[np.ndarray, ...]
    fits: list[float]
    converged: bool
    iterations: int
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    numeric_recoveries: list = field(default_factory=list)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.global_shape

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def to_tucker(self) -> TuckerTensor:
        """Assemble a replicated TuckerTensor (collective core gather)."""
        return TuckerTensor(core=self.core.gather(), factors=self.factors)


def hooi_parallel(
    dt: DistributedTensor,
    ranks: Sequence[int],
    *,
    method: str = "qr",
    init: str = "sthosvd",
    max_iters: int = 25,
    fit_tol: float = 1e-9,
    progress: Callable[[dict], None] | None = None,
    checkpoint=None,
    resume: dict | None = None,
) -> ParallelHooiResult:
    """Distributed rank-constrained Tucker refinement (collective).

    ``progress`` is called on rank 0 only, once per refreshed mode,
    with ``{"step", "total_steps", "iteration", "mode", "rank",
    "ranks", "seconds", "elapsed"}`` (``total_steps`` assumes
    ``max_iters`` full sweeps; early convergence just stops emitting).

    ``checkpoint`` is an optional
    :class:`~repro.faults.DistributedCheckpoint` saved once per
    completed sweep at *iteration* granularity: the blocks are the
    input tensor itself (each sweep recontracts from ``dt``), the meta
    carries factors, fits, and the input norm.  ``resume`` is the
    recovered meta; the ST-HOSVD initialization is then skipped and the
    sweep loop restarts at the recorded iteration.  See
    :func:`repro.core.ft.hooi_fault_tolerant` for the full recovery
    loop.
    """
    if init not in ("sthosvd",):
        raise ConfigurationError("parallel HOOI supports init='sthosvd'")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    # Restored state replays the interrupted sweep exactly: the
    # recorded norm keeps fit values (and hence the convergence
    # decision) identical to what the unfailed run would produce.
    loop = open_loop(
        dt, method=method, ranks=ranks,
        norm_sq=None if resume is None else float(resume["norm_x_sq"]),
        progress=progress if dt.comm.rank == 0 else None,
    )
    if resume is not None:
        loop.factors = [np.asarray(f) for f in resume["factors"]]
        fits = [float(f) for f in resume["fits"]]
        loop.recoveries = list(resume.get("numeric_recoveries", []))
    else:
        measure_norm(loop, dt)
        seed = sthosvd_parallel(dt, ranks=loop.ranks, method=method)
        loop.factors = list(seed.factors)
        loop.counter.merge(seed.flops)
        fits = []

    def save_sweep(iteration: int) -> None:
        checkpoint.save(dt, iteration, meta={
            "iteration": iteration,
            "factors": list(loop.factors),
            "fits": list(fits),
            "norm_x_sq": loop.norm_sq,
            "numeric_recoveries": list(loop.recoveries),
        })

    if checkpoint is not None:
        save_sweep(len(fits))
    core, converged = hooi_sweeps(
        loop, dt, fits, max_iters=max_iters, fit_tol=fit_tol,
        after_sweep=save_sweep if checkpoint is not None else None,
    )
    return ParallelHooiResult(
        core=core,
        factors=tuple(loop.factors),
        fits=fits,
        converged=converged,
        iterations=len(fits),
        method=method,
        precision=resolve_precision(dt.dtype),
        norm_x=loop.norm_x,
        flops=loop.counter,
        timer=loop.timer,
        numeric_recoveries=loop.recoveries,
    )
