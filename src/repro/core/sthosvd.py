"""Sequential ST-HOSVD (paper Alg. 1) with pluggable per-mode SVD.

For each mode in the chosen order: compute singular values and left
singular vectors of the current unfolding (QR-SVD via TensorLQ, or
TuckerMPI's Gram-SVD), pick the rank from the error budget, and truncate
with a TTM before moving on.  The working precision is whatever the
input tensor carries — convert with ``DenseTensor.astype`` (or pass
``precision=``) to run the paper's single-precision variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..instrument import FlopCounter, PhaseTimer
from ..precision import Precision
from ..tensor.dense import DenseTensor
from ..util.validation import resolve_mode_order
from .modeloop import METHODS, ModeLoop, dense_input, open_loop, truncated_loop
from .truncation import truncation_rel_error
from .tucker import TuckerTensor

__all__ = ["SthosvdResult", "sthosvd", "METHODS"]


@dataclass
class SthosvdResult:
    """Everything a run of ST-HOSVD produces; ``norm_x`` comes from the
    first processed mode's spectrum, not from a pass over the data:
    ``|norm_x^2 - ||X||^2| <= 64 eps ||X||^2`` in the working precision.

    Attributes
    ----------
    tucker:
        The computed decomposition.
    sigmas:
        Per-mode singular values as computed when that mode was
        processed (keys are mode indices; values descending arrays).
    mode_order:
        The order in which modes were processed.
    method, precision:
        Algorithm/working-precision actually used.
    norm_x:
        Frobenius norm of the input: ``sqrt(sum sigma_i^2)`` (float64
        sum) of the first processed mode, measured under ``10 eps``
        from the exact value (docs/algorithms.md, "Where ||X|| comes
        from"); ``method="randomized"`` measures it explicitly.
    flops:
        Operation counts by phase (LQ/Gram, SVD/EVD, TTM).
    timer:
        Wall-clock phase breakdown of this process.
    """

    tucker: TuckerTensor
    sigmas: dict[int, np.ndarray]
    mode_order: tuple[int, ...]
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.tucker.ranks

    def estimated_rel_error(self) -> float:
        """Error estimate from discarded singular values (free at runtime).

        The squared truncation errors of the modes are orthogonal, so
        their sum bounds the squared approximation error [28].
        """
        return truncation_rel_error(self.sigmas, self.tucker.ranks, self.norm_x)

    @classmethod
    def _from_loop(cls, loop: ModeLoop, core: DenseTensor, order):
        return cls(
            tucker=TuckerTensor(core=core, factors=tuple(loop.factors)),
            sigmas=loop.sigmas,
            mode_order=tuple(order),
            method=loop.method,
            precision=core.precision,
            norm_x=loop.norm_x,
            flops=loop.counter,
            timer=loop.timer,
        )


def sthosvd(
    tensor: DenseTensor | np.ndarray,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    precision=None,
    mode_order="forward",
    svd_options: dict | None = None,
) -> SthosvdResult:
    """Sequentially Truncated HOSVD of a dense tensor.

    Parameters
    ----------
    tensor:
        Input data (``DenseTensor`` or array-like).
    tol:
        Relative error tolerance ``eps``; ranks are chosen so the
        approximation satisfies ``||X - X_hat|| <= tol * ||X||`` (in
        exact arithmetic — the paper's subject is precisely when
        roundoff breaks this).
    ranks:
        Fixed per-mode ranks instead of a tolerance.  Exactly one of
        ``tol``/``ranks`` may be given; with neither, no truncation is
        performed (full HOSVD — used for singular-value studies).
    method:
        ``"qr"`` (numerically stable QR-SVD, this paper; the LQ runs on
        LAPACK's ``geqrf``/``tpqrt``) or ``"gram"`` (TuckerMPI's Gram-SVD
        baseline).
    precision:
        Optional working precision override (``"single"``/``"double"``,
        dtype, or :class:`Precision`); default is the input's dtype.
    mode_order:
        ``"forward"``, ``"backward"``, or an explicit permutation.
    svd_options:
        Extra keyword arguments for the per-mode SVD; currently used by
        ``method="randomized"`` (``oversample``, ``power_iters``, ``rng``).

    Returns
    -------
    SthosvdResult
    """
    tensor = dense_input(tensor, precision)
    order = resolve_mode_order(mode_order, tensor.ndim)
    loop = open_loop(tensor, method=method, tol=tol, ranks=ranks,
                     svd_options=svd_options)
    core = truncated_loop(loop, tensor, order)
    return SthosvdResult._from_loop(loop, core, order)
