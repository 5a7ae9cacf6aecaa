"""Distributed classic (truncated) HOSVD.

Each factor is computed from the *original* distributed tensor (no
sequential truncation); the core is formed by the chain of parallel TTM
truncations at the end.  More expensive than parallel ST-HOSVD — every
per-mode reduction runs over the full tensor — but ordering-independent,
which makes it the natural baseline for evaluating the sequencing
decision at scale, and some users require its factor set (all factors
consistent with the same, untruncated tensor).
"""

from __future__ import annotations

from typing import Sequence

from ..dist.dtensor import DistributedTensor
from .modeloop import factors_then_core, open_loop
from .sthosvd_parallel import ParallelSthosvdResult

__all__ = ["hosvd_parallel"]


def hosvd_parallel(
    dt: DistributedTensor,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
) -> ParallelSthosvdResult:
    """Distributed truncated classic HOSVD (collective).

    Arguments as :func:`repro.core.sthosvd_parallel.sthosvd_parallel`
    minus ``mode_order`` (irrelevant without sequential truncation).
    """
    loop = open_loop(dt, method=method, tol=tol, ranks=ranks)
    core = factors_then_core(loop, dt)
    return ParallelSthosvdResult._from_loop(loop, core, range(dt.ndim))
