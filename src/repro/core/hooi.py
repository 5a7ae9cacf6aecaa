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
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import FlopCounter
from ..precision import Precision, resolve_precision
from ..tensor.dense import DenseTensor
from .modeloop import (
    ModeLoop, hooi_sweeps, kind_of, measure_norm, open_loop, recovering,
    truncated_loop, work_input)
from .sthosvd import _Decomposition

if TYPE_CHECKING:
    from ..dist.dtensor import DistributedTensor

__all__ = ["HooiResult", "hooi"]


@dataclass
class HooiResult(_Decomposition):
    """Outcome of a HOOI run: a core of the input's kind, replicated
    factors (see :class:`~repro.core.sthosvd.SthosvdResult` for
    ``tucker``/``to_tucker()``, ``numeric_recoveries`` and
    ``rank_failures``), and the fit after every sweep."""

    core: DenseTensor | DistributedTensor
    factors: tuple[np.ndarray, ...]
    fits: list[float]
    converged: bool
    iterations: int
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    numeric_recoveries: list = field(default_factory=list)
    rank_failures: list = field(default_factory=list)

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
    checkpoint:
        Distributed only (``KIND_OPTIONS``): a
        :class:`~repro.faults.DistributedCheckpoint` saved once per
        completed sweep; its blocks are the input tensor itself (each
        sweep recontracts from it), its meta the factors, fits and input
        norm.  Inside ``run_spmd(resilience=True)`` the run survives rank
        failures by itself, the survivors resuming at the recorded sweep
        without repeating the initialization, exactly as
        :func:`~repro.core.sthosvd.sthosvd` does.
    """
    if init not in ("sthosvd", "random"):
        raise ConfigurationError(f"init must be 'sthosvd' or 'random', got {init!r}")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    tensor = work_input(
        tensor, precision, out_of_core=False, checkpoint=checkpoint,
        init=None if init == "sthosvd" else init)
    loop = open_loop(tensor, method=method, ranks=ranks)
    fits: list[float] = []
    if checkpoint is None:
        if kind_of(tensor) == "DistributedTensor" and tensor.comm.rank != 0:
            progress = None  # rank 0 reports for the world
        core, converged = _sweeps(loop, tensor, fits, init, max_iters,
                                  fit_tol, progress)
    else:
        core, converged = recovering(
            lambda work, meta: _sweeps(
                loop, work, fits, init, max_iters, fit_tol,
                progress if work.comm.rank == 0 else None, checkpoint, meta),
            tensor, checkpoint, "forward", loop.failures)
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
        numeric_recoveries=loop.recoveries,
        rank_failures=loop.failures,
    )


def _sweeps(loop: ModeLoop, tensor, fits: list, init, max_iters, fit_tol,
            progress, checkpoint=None, meta=None):
    """Initialize (or restore ``meta``, a checkpoint's state) and sweep,
    reporting to ``progress``; ``(core, converged)``.  ``checkpoint``
    saves on entry and after every sweep."""
    if meta is not None:
        # Restored state replays the interrupted sweep exactly: the
        # recorded norm keeps fit values (and hence the convergence
        # decision) identical to what the unfailed run would produce.
        loop.norm_sq = float(meta["norm_x_sq"])
        loop.factors = [np.asarray(f) for f in meta["factors"]]
        fits[:] = [float(f) for f in meta["fits"]]
        loop.recoveries = list(meta["numeric_recoveries"])
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
    loop.progress = progress
    save_sweep = None
    if checkpoint is not None:
        def save_sweep(iteration: int) -> None:
            checkpoint.save(tensor, iteration, meta={
                "iteration": iteration,
                "factors": list(loop.factors),
                "fits": list(fits),
                "norm_x_sq": loop.norm_sq,
                "numeric_recoveries": list(loop.recoveries),
            })

        save_sweep(len(fits))
    return hooi_sweeps(loop, tensor, fits, max_iters=max_iters,
                       fit_tol=fit_tol, after_sweep=save_sweep)
