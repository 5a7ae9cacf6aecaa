"""Core contribution: TuckerTensor, rank truncation, ST-HOSVD drivers.

The sequential and out-of-core drivers are imported here; the parallel
and fault-tolerant ones, which need :mod:`repro.mpi`, on first use.
"""

from .tucker import TuckerTensor
from .truncation import choose_rank, error_budget_per_mode, tail_energy
from .ordering import resolve_mode_order, greedy_order
from .modeloop import (
    ModeLoop, open_loop, resolve_truncation, pick_rank, solve_mode,
    truncate_mode, truncated_loop, factors_then_core, hooi_sweeps,
)
from .sthosvd import sthosvd, SthosvdResult, METHODS
from .hosvd import hosvd
from .hooi import hooi, HooiResult
from .metrics import validate_tucker, core_statistics, TuckerDiagnostics
from .outofcore import sthosvd_out_of_core, ooc_tensor_gram, ooc_tensor_lq
from .evaluate import streaming_rel_error, rel_error_lowmem
from .auto import choose_variant, compress, VariantChoice
from .recompress import recompress
from . import checkpoint
from .._lazy import lazy_exports

# The drivers that run on the SPMD runtime load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".sthosvd_parallel": ("sthosvd_parallel", "ParallelSthosvdResult"),
    ".hooi_parallel": ("hooi_parallel", "ParallelHooiResult"),
    ".hosvd_parallel": ("hosvd_parallel",),
    ".ft": ("FaultTolerantResult", "hooi_fault_tolerant",
            "sthosvd_fault_tolerant"),
})

__all__ = [
    "ModeLoop", "open_loop", "resolve_truncation", "pick_rank", "solve_mode",
    "truncate_mode", "truncated_loop", "factors_then_core", "hooi_sweeps",
    "hosvd",
    "hooi",
    "HooiResult",
    "validate_tucker",
    "core_statistics",
    "TuckerDiagnostics",
    "sthosvd_out_of_core",
    "ooc_tensor_gram",
    "ooc_tensor_lq",
    "hooi_parallel",
    "ParallelHooiResult",
    "hosvd_parallel",
    "streaming_rel_error",
    "rel_error_lowmem",
    "choose_variant",
    "compress",
    "VariantChoice",
    "recompress",
    "checkpoint",
    "TuckerTensor",
    "choose_rank",
    "error_budget_per_mode",
    "tail_energy",
    "resolve_mode_order",
    "greedy_order",
    "sthosvd",
    "SthosvdResult",
    "METHODS",
    "sthosvd_parallel",
    "ParallelSthosvdResult",
    "FaultTolerantResult",
    "sthosvd_fault_tolerant",
    "hooi_fault_tolerant",
]
