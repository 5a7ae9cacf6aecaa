"""Classic (truncated) HOSVD — the non-sequential baseline [19].

Where ST-HOSVD truncates each mode before moving to the next, classic
HOSVD computes every factor matrix from the *original* tensor and forms
the core in one multi-TTM at the end.  It does more work (every mode
sees the full tensor) and satisfies the same ``sqrt(N)``-quasi-optimality
bound; it is included as the natural baseline for ST-HOSVD's sequencing
decision and because TuckerMPI-family libraries ship both.  On a
distributed tensor every per-mode reduction runs over the full tensor,
and the factor set is consistent with that one untruncated tensor, which
some users require.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..tensor.dense import DenseTensor
from .modeloop import factors_then_core, open_loop, work_input
from .sthosvd import SthosvdResult

if TYPE_CHECKING:
    from ..dist.dtensor import DistributedTensor

__all__ = ["hosvd"]


def hosvd(
    tensor: DenseTensor | np.ndarray | DistributedTensor,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    precision=None,
) -> SthosvdResult:
    """Truncated classic HOSVD (all factors from the original tensor) of a
    dense or distributed tensor (collective over the latter's communicator).

    Accepts the same arguments as :func:`repro.core.sthosvd.sthosvd`
    except ``mode_order`` (ordering is irrelevant when nothing is
    truncated between modes) and the per-kind keywords, and returns the
    same result type.  There is no out-of-core HOSVD.
    """
    tensor = work_input(tensor, precision, out_of_core=False)
    loop = open_loop(tensor, method=method, tol=tol, ranks=ranks)
    core = factors_then_core(loop, tensor)
    return SthosvdResult._from_loop(loop, core, range(tensor.ndim))
