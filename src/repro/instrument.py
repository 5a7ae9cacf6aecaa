"""Flop counters and the phase vocabulary of the paper's breakdowns.

Every kernel in :mod:`repro.linalg` accepts an optional
:class:`FlopCounter`; the parallel drivers thread one through per rank.
The counters feed the performance model (:mod:`repro.perf`), which
converts flops to modeled time via per-precision flop rates.

Phases follow the paper's breakdown categories (LQ/Gram vs SVD/EVD vs
TTM, plus Comm); per-mode attribution is kept so reports can mirror
"computations of each mode ordered 0..N-1".  Time is not counted here:
the same phases tag the spans of a :class:`~repro.obs.Tracer`, whose
``by_phase`` is the measured breakdown.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["FlopCounter", "PHASE_LQ", "PHASE_GRAM", "PHASE_SVD", "PHASE_EVD", "PHASE_TTM", "PHASE_COMM"]

PHASE_LQ = "lq"
PHASE_GRAM = "gram"
PHASE_SVD = "svd"
PHASE_EVD = "evd"
PHASE_TTM = "ttm"
PHASE_COMM = "comm"


@dataclass
class FlopCounter:
    """Accumulates floating-point operation counts by (phase, mode).

    ``mode=None`` buckets flops not attributable to a tensor mode.
    """

    total: int = 0
    by_phase: dict = field(default_factory=lambda: defaultdict(int))
    by_phase_mode: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, flops: int, phase: str = "other", mode: int | None = None) -> None:
        """Record ``flops`` operations under ``phase`` (and optionally a mode)."""
        flops = int(flops)
        if flops < 0:
            raise ValueError("flop count cannot be negative")
        self.total += flops
        self.by_phase[phase] += flops
        self.by_phase_mode[(phase, mode)] += flops

    def phase_total(self, phase: str) -> int:
        """Flops recorded under one phase."""
        return self.by_phase.get(phase, 0)
