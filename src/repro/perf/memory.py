"""Per-rank memory footprint model for parallel ST-HOSVD.

TuckerMPI's viability depends on memory as much as time: the local
tensor block, the redistribution receive buffer, the triangular/Gram
factor, and the TTM partial must fit per rank.  This model walks the
same per-mode schedule as the time simulator and tracks the high-water
mark of each allocation class, enabling questions like "how many nodes
do I need just to *hold* this tensor?" (the paper needs 50 Andes nodes
for SP before speed is even a question).

Modeled allocations per mode ``n`` (working dims ``J``, grid ``P``):

* local tensor block: ``prod(J) / P`` words (persistent);
* redistribution slab (when ``P_n > 1``): a second copy of the local
  portion, ``prod(J) / P`` words;
* QR path: the ``J_n x J_n`` triangle (x2 during tree exchange);
  Gram path: two ``J_n x J_n`` matrices (local + reduced);
* factor matrices accumulated to date: ``sum I_k R_k`` (replicated);
* TTM partial: ``R_n * prod(J)/J_n / (P / P_n)`` words plus the output
  block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigurationError
from ..util.validation import resolve_mode_order
from ..precision import resolve_precision

__all__ = ["MemoryModel", "simulate_memory"]


@dataclass
class MemoryModel:
    """High-water memory marks (bytes per rank) of a modeled run."""

    shape: tuple[int, ...]
    ranks: tuple[int, ...]
    grid_dims: tuple[int, ...]
    method: str
    word_bytes: int
    peak_bytes: float = 0.0
    peak_mode: int | None = None
    by_mode: dict = field(default_factory=dict)

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / 2**30

    def _observe(self, mode: int, words: float) -> None:
        nbytes = words * self.word_bytes
        self.by_mode[mode] = max(self.by_mode.get(mode, 0.0), nbytes)
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
            self.peak_mode = mode


def simulate_memory(
    shape: Sequence[int],
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    *,
    method: str = "qr",
    precision="double",
    mode_order="forward",
) -> MemoryModel:
    """Model the per-rank memory high-water mark of parallel ST-HOSVD."""
    shape = tuple(int(s) for s in shape)
    ranks = tuple(int(r) for r in ranks)
    grid_dims = tuple(int(g) for g in grid_dims)
    ndim = len(shape)
    if len(ranks) != ndim or len(grid_dims) != ndim:
        raise ConfigurationError("shape, ranks, grid_dims must have equal lengths")
    if method not in ("qr", "gram"):
        raise ConfigurationError(f"method must be 'qr' or 'gram', got {method!r}")
    prec = resolve_precision(precision)
    order = resolve_mode_order(mode_order, ndim)
    P = math.prod(grid_dims)

    model = MemoryModel(
        shape=shape, ranks=ranks, grid_dims=grid_dims, method=method,
        word_bytes=prec.word_bytes,
    )

    J = list(shape)
    factor_words = 0.0
    for n in order:
        rows = J[n]
        p_n = grid_dims[n]
        local_words = math.prod(J) / P
        base = local_words + factor_words

        # Reduction stage: redistribution slab + small factor(s).
        redist = local_words if p_n > 1 else 0.0
        if method == "qr":
            smalls = 2.0 * rows * rows  # triangle + partner's during exchange
        else:
            smalls = 2.0 * rows * rows  # local Gram + allreduce result
        model._observe(n, base + redist + smalls)

        # SVD/EVD stage: factor matrix U (rows x rows) + vectors.
        model._observe(n, base + 2.0 * rows * rows)

        # TTM stage: full-R_n partial + reduced output block.
        r_n = ranks[n]
        partial = r_n * (math.prod(J) / rows) / (P / p_n)
        out_words = (math.prod(J) / rows) * r_n / P
        model._observe(n, base + partial + out_words)

        factor_words += shape[n] * r_n  # replicated factor retained
        J[n] = r_n

    return model
