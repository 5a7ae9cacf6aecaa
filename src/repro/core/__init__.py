"""Core contribution: TuckerTensor, rank truncation, the Tucker drivers.

Three drivers — ``sthosvd``, ``hosvd``, ``hooi`` — each take a dense or
distributed tensor (``sthosvd`` an out-of-core one too), and the kind
picks the arm; a distributed run given a ``checkpoint`` survives rank
failures by itself (:func:`~repro.core.modeloop.recovering`).  Every driver loads its own module on first use;
``import repro`` has imported :mod:`~repro.core.sthosvd` and the mode
loop under it.
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
    ".outofcore": ("ooc_tensor_gram", "ooc_tensor_lq"),
    ".evaluate": ("streaming_rel_error", "rel_error_lowmem"),
    ".auto": ("choose_variant", "compress", "VariantChoice"),
    ".recompress": ("recompress",),
    ".": ("checkpoint",),
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
    "ooc_tensor_gram",
    "ooc_tensor_lq",
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
]
