"""Calibrate a MachineModel from microbenchmarks on the current host.

The shipped machine models are calibrated to the paper's platforms; to
*predict this machine's* wall times (e.g. before a long out-of-core
run), measure its sustained kernel rates directly.  The microbenchmarks
time the same kernels the pipeline uses — gemm (TTM), syrk (Gram), the
LAPACK QR driver (LQ/TensorLQ), the structured tpqrt, and the small
gesvd/eigh — in both precisions, and assemble a :class:`MachineModel`
whose efficiency entries reproduce the measured rates.

Communication parameters have no meaning on the threaded runtime (a
"message" is a memcpy); they default to a shared-memory-ish guess and
can be overridden.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ..linalg.flops import eigh_flops, gemm_flops, gram_flops, qr_flops, svd_flops, tpqrt_flops
from ..linalg.tpqrt import tpqrt
from .machine import CommCosts, MachineModel

__all__ = ["KernelMeasurement", "measure_kernel_rates", "calibrate_machine"]


@dataclass(frozen=True)
class KernelMeasurement:
    """One kernel's measured sustained rate."""

    kernel: str
    dtype: str
    gflops: float
    seconds: float


def _time_call(fn, min_seconds: float = 0.05, max_reps: int = 50) -> float:
    """Best-of timing with enough repetitions to beat timer noise."""
    fn()  # warm-up (allocations, BLAS thread pools)
    best = float("inf")
    total = 0.0
    reps = 0
    while total < min_seconds and reps < max_reps:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        total += dt
        reps += 1
    return best


def measure_kernel_rates(
    *,
    size: int = 384,
    rng=None,
) -> list[KernelMeasurement]:
    """Measure sustained GFLOPS of every kernel family in f32 and f64."""
    rng = np.random.default_rng(rng)
    out: list[KernelMeasurement] = []
    n = size
    wide = 4 * n
    for dtype in (np.float64, np.float32):
        A = rng.standard_normal((n, wide)).astype(dtype)
        B = rng.standard_normal((wide, n)).astype(dtype)
        Rtri = np.triu(rng.standard_normal((n // 2, n // 2))).astype(dtype)
        Btri = np.triu(rng.standard_normal((n // 2, n // 2))).astype(dtype)
        small = rng.standard_normal((n // 2, n // 2)).astype(dtype)
        sym = small @ small.T

        cases = {
            "gemm": (lambda: A @ B, gemm_flops(n, wide, n)),
            "syrk": (lambda: A @ A.T, gram_flops(n, wide)),
            "geqr": (
                lambda: scipy.linalg.qr(A.T, mode="r", check_finite=False),
                qr_flops(wide, n),
            ),
            "gelq": (
                lambda: scipy.linalg.qr(
                    np.ascontiguousarray(A).T, mode="r", check_finite=False
                ),
                qr_flops(wide, n),
            ),
            "tpqrt": (
                lambda: tpqrt(Rtri.copy(), Btri.copy(), structure="tri"),
                tpqrt_flops(n // 2, n // 2, n // 2),
            ),
            "svd": (
                # Calibration times the raw driver on purpose: the rates
                # feed the cost model the instrumented kernels consult.
                lambda: scipy.linalg.svd(small, check_finite=False),  # repro-lint: allow(raw-lapack)
                svd_flops(n // 2, n // 2),
            ),
            "evd": (lambda: np.linalg.eigh(sym), eigh_flops(n // 2)),  # repro-lint: allow(raw-lapack)
        }
        for kernel, (fn, flops) in cases.items():
            secs = _time_call(fn)
            out.append(
                KernelMeasurement(
                    kernel=kernel,
                    dtype=np.dtype(dtype).name,
                    gflops=flops / secs / 1e9,
                    seconds=secs,
                )
            )
    return out


def calibrate_machine(
    name: str = "local",
    *,
    size: int = 384,
    cores_per_node: int = 1,
    comm: CommCosts | None = None,
    rng=None,
) -> MachineModel:
    """Build a MachineModel whose rates match this host's measurements.

    The model's "peak" is anchored to the measured f64 gemm rate (and
    2x that for f32), so efficiency entries express each kernel relative
    to the best dense kernel available here — the same structure as the
    paper-calibrated models.
    """
    measurements = measure_kernel_rates(size=size, rng=rng)
    by = {(m.kernel, m.dtype): m.gflops for m in measurements}
    peak64 = by[("gemm", "float64")]
    efficiency = {}
    for kernel in ("geqr", "gelq", "tpqrt", "syrk", "svd", "evd", "gemm"):
        # Average the two precisions' relative efficiency against their
        # respective anchors.
        e64 = by[(kernel, "float64")] / peak64
        e32 = by[(kernel, "float32")] / (2 * peak64)
        efficiency[kernel] = float(min((e64 + e32) / 2, 1.0))
    return MachineModel(
        name=name,
        cores_per_node=cores_per_node,
        peak_double=peak64 * 1e9,
        peak_single=2 * peak64 * 1e9,
        efficiency=efficiency,
        comm=comm if comm is not None else CommCosts(alpha=2e-7, beta=1 / 20e9),
    )
