"""Machine models for the alpha-beta-gamma performance studies.

Parameters are calibrated to the two platforms of Sec. 4.1:

* **Andes** (OLCF): 32 cores/node of AMD EPYC 7302 at 3 GHz — 48 GFLOPS
  peak per core in double precision, 96 in single.  The paper measures
  ~13-14% of peak for the dominant LQ/Gram kernels (6.4 GFLOPS double /
  13 single per core for QR-SVD on one node), with geqr and gelq equally
  fast.
* **Cascade Lake** (local server): 16 cores; here MKL's ``gelq``
  underperforms ``geqr`` roughly 2x (the paper suspects an internal
  explicit transpose), the asymmetry that drives Fig. 2a's preference
  for backward ordering with ``P_{N-1} = 1``.

Kernel efficiencies are sustained-fraction-of-peak per kernel family;
small redundant decompositions (SVD/EVD of the triangular/Gram factor)
run at low efficiency, dense multiplies (TTM, syrk) at high efficiency,
Householder factorizations in between — the standard BLAS-3 hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = ["CommCosts", "MachineModel", "ANDES", "CASCADE_LAKE", "KERNELS"]

KERNELS = ("geqr", "gelq", "tpqrt", "syrk", "svd", "evd", "gemm")


@dataclass(frozen=True)
class CommCosts:
    """Point-to-point message cost parameters: a message of ``n`` bytes
    costs ``alpha + beta * n`` seconds.

    ``beta`` is per **byte**, so precision-dependence falls out of the
    payload's itemsize.
    """

    alpha: float = 1.0e-6
    beta: float = 1.0 / 10.0e9  # 10 GB/s default link


@dataclass(frozen=True)
class MachineModel:
    """Per-core rates and network parameters of a modeled platform."""

    name: str
    cores_per_node: int
    peak_double: float  # flops/s per core
    peak_single: float
    efficiency: dict = field(default_factory=dict)  # kernel -> fraction of peak
    comm: CommCosts = field(default_factory=CommCosts)

    def __post_init__(self) -> None:
        for k in self.efficiency:
            if k not in KERNELS:
                raise ConfigurationError(f"unknown kernel family {k!r}")

    def peak(self, dtype) -> float:
        """Peak flops/s per core for a working precision."""
        dt = np.dtype(dtype)
        if dt == np.float32:
            return self.peak_single
        if dt == np.float64:
            return self.peak_double
        raise ConfigurationError(f"no peak rate for dtype {dt}")

    def rate(self, kernel: str, dtype) -> float:
        """Sustained flops/s per core for a kernel family and precision."""
        if kernel not in KERNELS:
            raise ConfigurationError(f"unknown kernel family {kernel!r}")
        eff = self.efficiency.get(kernel, 0.10)
        return eff * self.peak(dtype)

    def kernel_time(self, kernel: str, flops: float, dtype) -> float:
        """Seconds for ``flops`` operations of one core in ``kernel``."""
        return flops / self.rate(kernel, dtype)


# Andes: geqr == gelq at ~13.5% of peak (the observed 6.4/13 GFLOPS per
# core double/single).  syrk is set slightly *below* the QR kernels: the
# paper measures lower-than-expected Gram performance on Andes ("we
# attribute [it] to suboptimal BLAS/LAPACK implementations available on
# Andes" — MKL on AMD) and notes QR-SVD's GFLOPS are "slightly better".
# This calibration yields the paper's headline ratios: Gram-single ~2x
# Gram-double, QR-single ~30% faster than Gram-double.
# tpqrt (the butterfly's triangle-on-triangle steps) is 0.45x the geqr
# efficiency on both machines: perf.calibrate measures LAPACK's tpqrt at
# 0.42-0.49 of the geqrf rate (docs/performance-model.md).
ANDES = MachineModel(
    name="andes",
    cores_per_node=32,
    peak_double=48.0e9,
    peak_single=96.0e9,
    efficiency={
        "geqr": 0.135,
        "gelq": 0.135,
        "tpqrt": 0.06,
        "syrk": 0.11,
        "svd": 0.02,
        "evd": 0.02,
        "gemm": 0.30,
    },
    comm=CommCosts(alpha=2.0e-6, beta=1.0 / 12.0e9),
)

# Cascade Lake: gelq ~2x slower than geqr (observed, Sec. 4.2.1).
CASCADE_LAKE = MachineModel(
    name="cascade-lake",
    cores_per_node=16,
    peak_double=105.6e9,  # 2 AVX-512 FMA units at ~1.65 GHz heavy-AVX clock
    peak_single=211.2e9,
    efficiency={
        "geqr": 0.16,
        "gelq": 0.08,
        "tpqrt": 0.07,
        "syrk": 0.24,
        "svd": 0.02,
        "evd": 0.02,
        "gemm": 0.32,
    },
    comm=CommCosts(alpha=0.8e-6, beta=1.0 / 20.0e9),  # shared-memory MPI
)
