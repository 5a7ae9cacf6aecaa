"""Argument validation helpers used across the package.

These are small and boring on purpose: every public entry point validates
its inputs with these helpers so error messages are uniform and tests can
assert on the exception types from :mod:`repro.errors`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError, ConfigurationError

__all__ = [
    "require",
    "check_positive_int",
    "check_axis",
    "check_shape_match",
    "ensure_ndarray",
    "resolve_mode_order",
]


def require(condition: bool, message: str, exc: type = ConfigurationError) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def check_axis(axis, ndim: int, name: str = "mode") -> int:
    """Validate a mode/axis index against a tensor of ``ndim`` modes.

    Negative indices are supported with the usual Python convention.
    """
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {type(axis).__name__}")
    axis = int(axis)
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{name} {axis} out of range for {ndim}-mode tensor")
    return axis % ndim


def resolve_mode_order(order, ndim: int) -> tuple[int, ...]:
    """Normalize an ordering spec to an explicit mode permutation.

    Accepts ``"forward"``, ``"backward"``, or an explicit permutation of
    ``range(ndim)``.
    """
    if order == "forward" or order is None:
        return tuple(range(ndim))
    if order == "backward":
        return tuple(range(ndim - 1, -1, -1))
    try:
        modes = tuple(int(m) for m in order)
    except TypeError as exc:
        raise ConfigurationError(f"cannot interpret mode order {order!r}") from exc
    if sorted(modes) != list(range(ndim)):
        raise ConfigurationError(
            f"mode order {modes} is not a permutation of 0..{ndim - 1}"
        )
    return modes


def check_shape_match(shape_a: Sequence[int], shape_b: Sequence[int], what: str) -> None:
    """Raise :class:`ShapeError` unless the two shapes are equal."""
    if tuple(shape_a) != tuple(shape_b):
        raise ShapeError(f"{what}: shape mismatch {tuple(shape_a)} vs {tuple(shape_b)}")


def ensure_ndarray(a, name: str, *, ndim: int | None = None, dtype=None) -> np.ndarray:
    """Convert ``a`` to an ndarray, optionally checking rank and casting dtype.

    Unlike ``np.asarray`` this gives a package-specific error message when
    the rank is wrong, and never silently downcasts: if ``dtype`` is given
    the conversion uses ``same_kind`` casting.
    """
    arr = np.asarray(a) if dtype is None else np.asarray(a, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr
