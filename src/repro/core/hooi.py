"""Higher-Order Orthogonal Iteration (HOOI) — rank-constrained refinement.

ST-HOSVD is quasi-optimal (within ``sqrt(N)`` of the best error for its
ranks) but not optimal.  HOOI is the classical alternating scheme that
refines a Tucker decomposition toward a local optimum: at each step the
factor of one mode is recomputed as the leading left singular vectors of
the tensor contracted with every *other* mode's current factor.  The fit
``||core|| / ||X||`` is monotonically non-decreasing, which doubles as a
convergence certificate and a test invariant.

Initialization defaults to ST-HOSVD (the standard choice); the per-mode
SVD reuses the same QR-SVD/Gram-SVD kernels, so HOOI inherits the
paper's precision/accuracy trade-offs.  On a distributed tensor the
contractions are the parallel TTM (fiber reduce-scatter), the per-mode
SVDs the parallel QR-SVD/Gram-SVD, and the fit divides by the
distributed norm.  All reductions are deterministic, so factor matrices
and the convergence decision are bitwise replicated — no rank ever
disagrees about when to stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..dist.dtensor import DistributedTensor
from ..errors import ConfigurationError
from ..instrument import FlopCounter, PhaseTimer
from ..precision import Precision, resolve_precision
from ..tensor.dense import DenseTensor
from .modeloop import (
    hooi_sweeps, measure_norm, open_loop, truncated_loop, work_input)
from .sthosvd import _Decomposition

__all__ = ["HooiResult", "hooi"]


@dataclass
class HooiResult(_Decomposition):
    """Outcome of a HOOI run: a core of the input's kind, replicated
    factors (see :class:`~repro.core.sthosvd.SthosvdResult` for
    ``tucker``/``to_tucker()``), and the fit after every sweep."""

    core: DenseTensor | DistributedTensor
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
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def rel_error_estimate(self) -> float:
        """``sqrt(1 - fit^2)`` — the error implied by the captured energy."""
        f = min(self.final_fit, 1.0)
        return float(np.sqrt(max(1.0 - f * f, 0.0)))


def hooi(
    tensor: DenseTensor | np.ndarray | DistributedTensor,
    ranks: Sequence[int],
    *,
    method: str = "qr",
    precision=None,
    init: str = "sthosvd",
    max_iters: int = 25,
    fit_tol: float = 1e-9,
    progress: Callable[[dict], None] | None = None,
    checkpoint=None,
    resume: dict | None = None,
) -> HooiResult:
    """Rank-``ranks`` Tucker approximation via alternating optimization,
    of a dense or distributed tensor (collective over the latter's
    communicator).  There is no out-of-core HOOI.

    Parameters
    ----------
    tensor:
        Input data.
    ranks:
        Target multilinear rank (required — HOOI optimizes at fixed rank).
    method:
        Per-mode SVD algorithm, as in :func:`~repro.core.sthosvd.sthosvd`.
    precision:
        Working precision, as in :func:`~repro.core.sthosvd.sthosvd`.
    init:
        ``"sthosvd"`` (default) or, on a dense tensor, ``"random"`` factor
        initialization.
    max_iters:
        Maximum alternating sweeps.
    fit_tol:
        Stop when the fit improves by less than this between sweeps.
    progress:
        Called once per refreshed mode (on rank 0 only, for a distributed
        tensor) with ``{"step", "total_steps", "iteration", "mode",
        "rank", "ranks", "seconds", "elapsed"}`` (``total_steps`` assumes
        ``max_iters`` full sweeps; early convergence just stops emitting).
        The ST-HOSVD initialization reports nothing.
    checkpoint, resume:
        Distributed only (``KIND_OPTIONS``).  ``checkpoint`` is a
        :class:`~repro.faults.DistributedCheckpoint` saved once per
        completed sweep: the blocks are the input tensor itself (each
        sweep recontracts from it), the meta carries factors, fits, and
        the input norm.  ``resume`` is the recovered meta; the
        initialization is then skipped and the sweeps restart at the
        recorded iteration.  See :func:`repro.core.ft.hooi_fault_tolerant`
        for the full recovery loop.
    """
    if init not in ("sthosvd", "random"):
        raise ConfigurationError(f"init must be 'sthosvd' or 'random', got {init!r}")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    tensor = work_input(
        tensor, precision, out_of_core=False, checkpoint=checkpoint,
        resume=resume, init=None if init == "sthosvd" else init)
    loop = open_loop(tensor, method=method, ranks=ranks)
    fits: list[float] = []
    if resume is not None:
        # Restored state replays the interrupted sweep exactly: the
        # recorded norm keeps fit values (and hence the convergence
        # decision) identical to what the unfailed run would produce.
        loop.norm_sq = float(resume["norm_x_sq"])
        loop.factors = [np.asarray(f) for f in resume["factors"]]
        fits = [float(f) for f in resume["fits"]]
        loop.recoveries = list(resume.get("numeric_recoveries", []))
    else:
        measure_norm(loop, tensor)
        if init == "sthosvd":
            # The seed is ST-HOSVD at the fixed ranks on this very loop,
            # so its flops, phases and guard escalations are the run's.
            truncated_loop(loop, tensor, range(tensor.ndim))
        else:
            from ..data.synthetic import random_orthonormal

            rng = np.random.default_rng(0)
            loop.factors = [
                random_orthonormal(i, r, rng, dtype=tensor.dtype)
                for i, r in zip(tensor.shape, loop.ranks)
            ]
    if isinstance(tensor, DistributedTensor) and tensor.comm.rank != 0:
        progress = None  # rank 0 reports for the world
    loop.progress = progress

    def save_sweep(iteration: int) -> None:
        checkpoint.save(tensor, iteration, meta={
            "iteration": iteration,
            "factors": list(loop.factors),
            "fits": list(fits),
            "norm_x_sq": loop.norm_sq,
            "numeric_recoveries": list(loop.recoveries),
        })

    if checkpoint is not None:
        save_sweep(len(fits))
    core, converged = hooi_sweeps(
        loop, tensor, fits, max_iters=max_iters, fit_tol=fit_tol,
        after_sweep=save_sweep if checkpoint is not None else None,
    )
    return HooiResult(
        core=core,
        factors=tuple(loop.factors),
        fits=fits,
        converged=converged,
        iterations=len(fits),
        method=method,
        precision=resolve_precision(tensor.dtype),
        norm_x=loop.norm_x,
        flops=loop.counter,
        timer=loop.timer,
        numeric_recoveries=loop.recoveries,
    )
