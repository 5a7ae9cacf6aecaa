"""Dense tensor substrate: natural-layout tensors, unfoldings, and TTM."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".dense": ("DenseTensor",),
    ".unfold": ("unfold", "fold"),
    ".ttm": ("ttm", "multi_ttm", "ttm_flops"),
    ".manipulate": ("permute_modes", "concatenate_mode", "subtensor"),
    ".": ("layout",),
})

__all__ = [
    "DenseTensor",
    "unfold",
    "fold",
    "ttm",
    "multi_ttm",
    "ttm_flops",
    "permute_modes",
    "concatenate_mode",
    "subtensor",
    "layout",
]
