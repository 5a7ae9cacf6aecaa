"""Core contribution: TuckerTensor, rank truncation, ST-HOSVD drivers."""

from .tucker import TuckerTensor
from .truncation import choose_rank, error_budget_per_mode, tail_energy
from .ordering import resolve_mode_order, greedy_order
from .modeloop import (
    ModeLoop, open_loop, resolve_truncation, pick_rank, solve_mode,
    truncate_mode, truncated_loop, factors_then_core, hooi_sweeps,
)
from .sthosvd import sthosvd, SthosvdResult, METHODS
from .sthosvd_parallel import sthosvd_parallel, ParallelSthosvdResult
from .hosvd import hosvd
from .hooi import hooi, HooiResult
from .metrics import validate_tucker, core_statistics, TuckerDiagnostics
from .outofcore import sthosvd_out_of_core, ooc_tensor_gram, ooc_tensor_lq
from .hooi_parallel import hooi_parallel, ParallelHooiResult
from .hosvd_parallel import hosvd_parallel
from .evaluate import streaming_rel_error, rel_error_lowmem
from .auto import choose_variant, compress, VariantChoice
from .recompress import recompress
from .ft import (
    FaultTolerantResult,
    hooi_fault_tolerant,
    sthosvd_fault_tolerant,
)
from . import checkpoint

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
