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
paper's precision/accuracy trade-offs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import FlopCounter, PhaseTimer
from ..precision import Precision
from ..tensor.dense import DenseTensor
from .modeloop import dense_input, hooi_sweeps, measure_norm, open_loop
from .sthosvd import sthosvd
from .tucker import TuckerTensor

__all__ = ["HooiResult", "hooi"]


@dataclass
class HooiResult:
    """Outcome of a HOOI run."""

    tucker: TuckerTensor
    fits: list[float]
    converged: bool
    iterations: int
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.tucker.ranks

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def rel_error_estimate(self) -> float:
        """``sqrt(1 - fit^2)`` — the error implied by the captured energy."""
        f = min(self.final_fit, 1.0)
        return float(np.sqrt(max(1.0 - f * f, 0.0)))


def hooi(
    tensor: DenseTensor | np.ndarray,
    ranks: Sequence[int],
    *,
    method: str = "qr",
    precision=None,
    init: str = "sthosvd",
    max_iters: int = 25,
    fit_tol: float = 1e-9,
) -> HooiResult:
    """Rank-``ranks`` Tucker approximation via alternating optimization.

    Parameters
    ----------
    tensor:
        Input data.
    ranks:
        Target multilinear rank (required — HOOI optimizes at fixed rank).
    method:
        Per-mode SVD algorithm, as in :func:`~repro.core.sthosvd.sthosvd`.
    init:
        ``"sthosvd"`` (default) or ``"random"`` factor initialization.
    max_iters:
        Maximum alternating sweeps.
    fit_tol:
        Stop when the fit improves by less than this between sweeps.
    """
    if init not in ("sthosvd", "random"):
        raise ConfigurationError(f"init must be 'sthosvd' or 'random', got {init!r}")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    tensor = dense_input(tensor, precision)
    loop = open_loop(tensor, method=method, ranks=ranks)
    measure_norm(loop, tensor)
    if init == "sthosvd":
        seed_res = sthosvd(tensor, ranks=loop.ranks, method=method)
        loop.factors = list(seed_res.tucker.factors)
        loop.counter.merge(seed_res.flops)
    else:
        from ..data.synthetic import random_orthonormal

        rng = np.random.default_rng(0)
        loop.factors = [
            random_orthonormal(i, r, rng, dtype=tensor.dtype)
            for i, r in zip(tensor.shape, loop.ranks)
        ]

    fits: list[float] = []
    core, converged = hooi_sweeps(
        loop, tensor, fits, max_iters=max_iters, fit_tol=fit_tol)
    return HooiResult(
        tucker=TuckerTensor(core=core, factors=tuple(loop.factors)),
        fits=fits,
        converged=converged,
        iterations=len(fits),
        method=method,
        precision=tensor.precision,
        norm_x=loop.norm_x,
        flops=loop.counter,
        timer=loop.timer,
    )
