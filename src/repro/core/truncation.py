"""Error-driven rank selection (line 5 of ST-HOSVD, Alg. 1).

Given the singular values of the mode-``n`` unfolding, the retained rank
is the smallest ``R`` whose discarded tail satisfies

    sum_{i >= R} sigma_i^2  <=  eps^2 * ||X||^2 / N

so that the per-mode truncation errors, which are mutually orthogonal,
add up to at most ``eps^2 ||X||^2`` overall [28].  Tail sums are
accumulated in float64 regardless of working precision — the sums
themselves should not add roundoff on top of the already-noisy computed
singular values (whose noise floors are the subject of the paper).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["error_budget_per_mode", "choose_rank", "tail_energy", "truncation_rel_error"]


def error_budget_per_mode(norm_x_squared: float, tol: float, n_modes: int) -> float:
    """Per-mode squared error allowance ``tol^2 * ||X||^2 / N``."""
    if tol < 0:
        raise ConfigurationError(f"tolerance must be non-negative, got {tol}")
    if n_modes <= 0:
        raise ConfigurationError("tensor must have at least one mode")
    if norm_x_squared < 0:
        raise ConfigurationError("squared norm cannot be negative")
    return (tol * tol) * norm_x_squared / n_modes


def tail_energy(sigma: np.ndarray) -> np.ndarray:
    """``tail[r] = sum_{i >= r} sigma_i^2`` in float64 (length ``len(sigma)+1``).

    ``tail[0]`` is the total energy; ``tail[len(sigma)]`` is 0.
    """
    s2 = np.asarray(sigma, dtype=np.float64) ** 2
    out = np.zeros(len(s2) + 1)
    out[:-1] = np.cumsum(s2[::-1])[::-1]
    return out


def choose_rank(sigma: np.ndarray, budget: float) -> int:
    """Smallest rank whose discarded tail energy fits within ``budget``.

    ``sigma`` must be sorted in decreasing order (as all SVD routines in
    this package return).  At least rank 1 is always retained, matching
    TuckerMPI: a mode is never eliminated entirely.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be non-negative, got {budget}")
    sigma = np.asarray(sigma)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ConfigurationError("sigma must be a nonempty vector")
    if np.any(np.diff(sigma.astype(np.float64)) > 0):
        raise ConfigurationError("singular values must be sorted in decreasing order")
    tails = tail_energy(sigma)
    # smallest R with tails[R] <= budget
    candidates = np.nonzero(tails <= budget)[0]
    r = int(candidates[0]) if candidates.size else len(sigma)
    return max(r, 1)


def truncation_rel_error(sigmas: dict, ranks, norm_x: float) -> float:
    """Relative error implied by the discarded singular values.

    ``sigmas[n]`` are mode ``n``'s singular values and ``ranks[n]`` the
    rank kept.  The squared truncation errors of the modes are
    orthogonal, so their sum bounds the squared approximation error
    [28] — an estimate that is free at runtime.
    """
    if norm_x == 0:
        return 0.0
    total = 0.0
    for n, sigma in sigmas.items():
        tail = np.asarray(sigma[ranks[n]:], dtype=np.float64)
        total += float(np.sum(tail * tail))
    return float(np.sqrt(total) / norm_x)
