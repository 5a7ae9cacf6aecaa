"""Shared utilities: validation helpers, seeded RNG, and table formatting
(plus, by module path, :mod:`~repro.util.arraycodec` and the on-disk
protocol :mod:`~repro.util.durable`)."""

from .validation import (
    check_axis,
    check_positive_int,
    check_shape_match,
    ensure_ndarray,
    require,
    resolve_mode_order,
)
from .rng import default_rng, spawn_rngs
from .tables import format_table

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
