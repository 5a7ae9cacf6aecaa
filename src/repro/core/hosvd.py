"""Classic (truncated) HOSVD — the non-sequential baseline [19].

Where ST-HOSVD truncates each mode before moving to the next, classic
HOSVD computes every factor matrix from the *original* tensor and forms
the core in one multi-TTM at the end.  It does more work (every mode
sees the full tensor) and satisfies the same ``sqrt(N)``-quasi-optimality
bound; it is included as the natural baseline for ST-HOSVD's sequencing
decision and because TuckerMPI-family libraries ship both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..tensor.dense import DenseTensor
from .modeloop import dense_input, factors_then_core, open_loop
from .sthosvd import SthosvdResult

__all__ = ["hosvd"]


def hosvd(
    tensor: DenseTensor | np.ndarray,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    precision=None,
) -> SthosvdResult:
    """Truncated classic HOSVD (all factors from the original tensor).

    Accepts the same arguments as :func:`repro.core.sthosvd.sthosvd`
    except ``mode_order`` (ordering is irrelevant when nothing is
    truncated between modes) and returns the same result type.
    """
    tensor = dense_input(tensor, precision)
    loop = open_loop(tensor, method=method, tol=tol, ranks=ranks)
    core = factors_then_core(loop, tensor)
    return SthosvdResult._from_loop(loop, core, range(tensor.ndim))
