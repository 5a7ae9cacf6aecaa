"""Shared utilities: validation helpers, seeded RNG, and table formatting
(plus, by module path, :mod:`~repro.util.arraycodec` and the on-disk
protocol :mod:`~repro.util.durable`)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".validation": ("check_axis", "check_positive_int", "check_shape_match",
                    "ensure_ndarray", "require", "resolve_mode_order"),
    ".rng": ("default_rng", "spawn_rngs"),
    ".tables": ("format_table",),
})

__all__ = [
    "check_axis",
    "check_positive_int",
    "check_shape_match",
    "ensure_ndarray",
    "require",
    "resolve_mode_order",
    "default_rng",
    "spawn_rngs",
    "format_table",
]
