"""Modeled-mode ST-HOSVD: regenerate the paper's timing studies at any scale.

The functional runtime (threads-as-ranks) validates numerics up to a few
dozen ranks; the paper's scaling studies run on up to 2048 cores with
terabyte tensors.  This module walks the *same per-mode schedule* as the
parallel driver — redistribution, local LQ/Gram, butterfly or allreduce,
redundant SVD/EVD, TTM with fiber reduce-scatter — but instead of moving
data it accumulates modeled time from the cost expressions of Sec. 3.5
(eqs. 9-11) and the machine model's per-kernel sustained rates.

What the model carries and why it reproduces the paper's shapes:

* flop counts per kernel per mode, with working-precision flop rates
  (the 2x single/double throughput gap drives the headline speedups);
* the geqr/gelq efficiency asymmetry (drives Fig. 2's ordering effects);
* alpha/beta communication terms for the redistribution all-to-all, the
  TSQR butterfly, the Gram allreduce, and the TTM reduce-scatter
  (drives the strong-scaling rolloff in Fig. 4);
* the sequential-bottleneck redundant SVD/EVD (the paper's stated
  limitation for very large mode sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import PHASE_LQ, PHASE_GRAM, PHASE_SVD, PHASE_EVD, PHASE_TTM
from ..util.validation import resolve_mode_order
from ..linalg.flops import eigh_flops, svd_flops
from ..precision import resolve_precision
from .machine import MachineModel

__all__ = ["ModeledRun", "simulate_sthosvd"]


@dataclass
class ModeledRun:
    """Outcome of a modeled parallel ST-HOSVD execution."""

    shape: tuple[int, ...]
    ranks: tuple[int, ...]
    grid_dims: tuple[int, ...]
    method: str
    dtype: np.dtype
    mode_order: tuple[int, ...]
    machine: str
    seconds_by_phase_mode: dict = field(default_factory=dict)
    flops_total: float = 0.0

    @property
    def nprocs(self) -> int:
        return math.prod(self.grid_dims)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_phase_mode.values())

    def seconds_by_phase(self) -> dict[str, float]:
        """Total modeled seconds per phase (LQ/Gram, SVD/EVD, TTM)."""
        out: dict[str, float] = {}
        for (phase, _mode), t in self.seconds_by_phase_mode.items():
            out[phase] = out.get(phase, 0.0) + t
        return out

    def seconds_by_mode(self) -> dict[int, float]:
        """Total modeled seconds attributed to each tensor mode."""
        out: dict[int, float] = {}
        for (_phase, mode), t in self.seconds_by_phase_mode.items():
            out[mode] = out.get(mode, 0.0) + t
        return out

    def gflops_per_core(self) -> float:
        """Sustained GFLOPS per core over the whole run (Fig. 3a metric)."""
        if self.total_seconds == 0:
            return 0.0
        return self.flops_total / (self.total_seconds * self.nprocs) / 1e9

    def _charge(self, phase: str, mode: int, seconds: float) -> None:
        key = (phase, mode)
        self.seconds_by_phase_mode[key] = self.seconds_by_phase_mode.get(key, 0.0) + seconds

    def to_dict(self) -> dict:
        """JSON-serializable summary (for exporting modeled sweeps)."""
        return {
            "shape": list(self.shape),
            "ranks": list(self.ranks),
            "grid": list(self.grid_dims),
            "method": self.method,
            "precision": str(np.dtype(self.dtype)),
            "mode_order": list(self.mode_order),
            "machine": self.machine,
            "nprocs": self.nprocs,
            "total_seconds": self.total_seconds,
            "gflops_per_core": self.gflops_per_core(),
            "seconds_by_phase": self.seconds_by_phase(),
            "seconds_by_phase_mode": {
                f"{phase}:{mode}": t
                for (phase, mode), t in self.seconds_by_phase_mode.items()
            },
        }

    def to_csv_row(self) -> str:
        """One CSV line: grid;order;method;precision;nprocs;seconds;gflops."""
        return ";".join(
            str(x)
            for x in (
                "x".join(map(str, self.grid_dims)),
                "-".join(map(str, self.mode_order)),
                self.method,
                np.dtype(self.dtype),
                self.nprocs,
                f"{self.total_seconds:.6g}",
                f"{self.gflops_per_core():.4g}",
            )
        )


def simulate_sthosvd(
    shape: Sequence[int],
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    *,
    method: str = "qr",
    precision="double",
    mode_order="forward",
    machine: MachineModel,
) -> ModeledRun:
    """Model one parallel ST-HOSVD run (ranks assumed known, as in Sec. 4.3-4.4).

    Parameters mirror the functional driver; ``ranks`` are the
    post-truncation mode dimensions (the scaling experiments fix them).
    """
    shape = tuple(int(s) for s in shape)
    ranks = tuple(int(r) for r in ranks)
    grid_dims = tuple(int(g) for g in grid_dims)
    ndim = len(shape)
    if len(ranks) != ndim or len(grid_dims) != ndim:
        raise ConfigurationError("shape, ranks, grid_dims must have equal lengths")
    for n in range(ndim):
        if not 1 <= ranks[n] <= shape[n]:
            raise ConfigurationError(f"rank {ranks[n]} invalid for mode {n}")
        if grid_dims[n] < 1:
            raise ConfigurationError("grid dims must be positive")
    if method not in ("qr", "gram"):
        raise ConfigurationError(f"method must be 'qr' or 'gram', got {method!r}")
    prec = resolve_precision(precision)
    dtype = prec.dtype
    word = prec.word_bytes
    order = resolve_mode_order(mode_order, ndim)
    P = math.prod(grid_dims)
    alpha = machine.comm.alpha
    beta = machine.comm.beta

    run = ModeledRun(
        shape=shape,
        ranks=ranks,
        grid_dims=grid_dims,
        method=method,
        dtype=dtype,
        mode_order=order,
        machine=machine.name,
    )

    J = list(shape)
    for n in order:
        rows = J[n]
        p_n = grid_dims[n]
        j_all = math.prod(J)
        cols_local = j_all / (rows * P)
        reduction_phase = PHASE_LQ if method == "qr" else PHASE_GRAM

        # --- redistribution all-to-all within mode-n fibers ------------
        if p_n > 1:
            local_words = j_all / P
            t_redist = alpha * (p_n - 1) + beta * local_words * word * (p_n - 1) / p_n
            run._charge(reduction_phase, n, t_redist)

        if method == "qr":
            # --- local LQ of the I_n x cols_local slab ------------------
            fl_local = max(2.0 * rows * rows * cols_local - (2.0 / 3.0) * rows**3, 0.0)
            # geqr applies to the whole (row-major) unfolding only for the
            # last mode (Sec. 4.2.1); all other modes go through gelq.
            kernel = "geqr" if n == ndim - 1 else "gelq"
            run._charge(PHASE_LQ, n, machine.kernel_time(kernel, fl_local, dtype))
            run.flops_total += fl_local * P

            # --- butterfly TSQR: log P rounds of triangle exchanges -----
            steps = max(math.ceil(math.log2(P)), 0) if P > 1 else 0
            if steps:
                fl_tree = steps * (2.0 / 3.0) * rows**3
                run._charge(PHASE_LQ, n, machine.kernel_time("tpqrt", fl_tree, dtype))
                run.flops_total += fl_tree * P
                tri_words = rows * (rows + 1) / 2
                run._charge(PHASE_LQ, n, steps * (alpha + beta * tri_words * word))

            # --- redundant SVD of the triangle --------------------------
            fl_svd = svd_flops(rows, rows)
            run._charge(PHASE_SVD, n, machine.kernel_time("svd", fl_svd, dtype))
            run.flops_total += fl_svd  # redundant work counts once
        else:
            # --- local syrk Gram of the slab ----------------------------
            fl_local = rows * rows * cols_local
            run._charge(PHASE_GRAM, n, machine.kernel_time("syrk", fl_local, dtype))
            run.flops_total += fl_local * P

            # --- allreduce of the I_n x I_n Gram matrix -----------------
            if P > 1:
                steps = math.ceil(math.log2(P))
                g_words = rows * rows
                run._charge(
                    PHASE_GRAM, n, 2 * steps * (alpha + beta * g_words * word)
                )

            # --- redundant EVD ------------------------------------------
            fl_evd = eigh_flops(rows)
            run._charge(PHASE_EVD, n, machine.kernel_time("evd", fl_evd, dtype))
            run.flops_total += fl_evd

        # --- TTM truncation ---------------------------------------------
        r_n = ranks[n]
        fl_ttm = 2.0 * r_n * j_all / P
        run._charge(PHASE_TTM, n, machine.kernel_time("gemm", fl_ttm, dtype))
        run.flops_total += fl_ttm * P
        if p_n > 1:
            partial_words = r_n * (j_all / rows) / (P / p_n)
            t_rs = alpha * math.ceil(math.log2(p_n)) + beta * partial_words * word * (
                p_n - 1
            ) / p_n
            run._charge(PHASE_TTM, n, t_rs)
        J[n] = r_n

    return run
