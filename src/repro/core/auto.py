"""Automatic method/precision selection — the paper's Sec. 5 as an API.

The paper's conclusion is a decision table: for a target tolerance,
pick the cheapest (method, precision) whose accuracy floor clears it
with margin.  :func:`choose_variant` encodes that table from the
Theorem-1/2 floors (so it is derived, not hard-coded), and
:func:`compress` is the batteries-included entry point: give it a
tensor and a tolerance, it runs ST-HOSVD with the right variant.

Variants are ranked by modeled cost: Gram-single < QR-single <
Gram-double < QR-double (half-precision halves both flops-time and
bandwidth; Gram halves the flops of QR).  A safety factor keeps the
selection away from each floor — the paper's own experiments show
behaviour degrading within ~1 decade of the theoretical boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..linalg.accuracy import min_reachable_tolerance
from ..precision import Precision, SINGLE, DOUBLE
from ..tensor.dense import DenseTensor
from .sthosvd import sthosvd, SthosvdResult

__all__ = ["VariantChoice", "choose_variant", "compress"]

# Cheapest first: relative cost ~ flops multiplier / precision speedup.
_VARIANTS_BY_COST = [
    ("gram", SINGLE),
    ("qr", SINGLE),
    ("gram", DOUBLE),
    ("qr", DOUBLE),
]


@dataclass(frozen=True)
class VariantChoice:
    """A selected (method, precision) with its safety margin."""

    method: str
    precision: Precision
    floor: float
    margin: float

    @property
    def label(self) -> str:
        return f"{self.method}-{self.precision}"


def choose_variant(tol: float, *, safety: float = 10.0) -> VariantChoice:
    """Cheapest variant whose accuracy floor clears ``tol`` by ``safety``.

    ``safety=10`` demands one decade of headroom (the paper's Tables 2-3
    show variants already failing at tolerances within a decade of their
    floors).  Raises if nothing qualifies — i.e. ``tol`` below
    ``eps_double`` territory, which no floating-point variant reaches.
    """
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    if safety < 1:
        raise ConfigurationError("safety factor must be >= 1")
    for method, prec in _VARIANTS_BY_COST:
        floor = min_reachable_tolerance(method, prec)
        if floor * safety <= tol:
            return VariantChoice(
                method=method, precision=prec, floor=floor, margin=tol / floor
            )
    raise ConfigurationError(
        f"no variant can honour tolerance {tol:.1e}: even QR-double's floor "
        f"is {min_reachable_tolerance('qr', DOUBLE):.1e}"
    )


def compress(
    tensor: DenseTensor | np.ndarray,
    tol: float,
    *,
    safety: float = 10.0,
    mode_order="forward",
) -> SthosvdResult:
    """Tolerance-driven compression with automatic variant selection.

    Equivalent to calling :func:`~repro.core.sthosvd.sthosvd` with the
    method/precision that :func:`choose_variant` picks for ``tol``.
    The returned result's ``method``/``precision`` record the choice.

    >>> result = compress(X, tol=1e-4)     # selects QR single
    >>> result.method, str(result.precision)
    ('qr', 'single')
    """
    choice = choose_variant(tol, safety=safety)
    return sthosvd(
        tensor,
        tol=tol,
        method=choice.method,
        precision=choice.precision,
        mode_order=mode_order,
    )
