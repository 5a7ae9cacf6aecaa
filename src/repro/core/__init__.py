"""Core contribution: TuckerTensor, rank truncation, ST-HOSVD drivers.

Every driver loads its own module on first use; ``import repro`` has
imported :mod:`~repro.core.sthosvd` and the mode loop under it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".tucker": ("TuckerTensor",),
    ".truncation": ("choose_rank", "error_budget_per_mode", "tail_energy"),
    ".ordering": ("resolve_mode_order", "greedy_order"),
    ".modeloop": ("ModeLoop", "open_loop", "resolve_truncation", "pick_rank",
                  "solve_mode", "truncate_mode", "truncated_loop",
                  "factors_then_core", "hooi_sweeps"),
    ".sthosvd": ("sthosvd", "SthosvdResult", "METHODS"),
    ".hosvd": ("hosvd",),
    ".hooi": ("hooi", "HooiResult"),
    ".metrics": ("validate_tucker", "core_statistics", "TuckerDiagnostics"),
    ".outofcore": ("sthosvd_out_of_core", "ooc_tensor_gram", "ooc_tensor_lq"),
    ".evaluate": ("streaming_rel_error", "rel_error_lowmem"),
    ".auto": ("choose_variant", "compress", "VariantChoice"),
    ".recompress": ("recompress",),
    ".": ("checkpoint",),
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
