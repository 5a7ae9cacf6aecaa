"""Plain NumPy yardstick and checks.  Never imports ``repro``.

``reference_sthosvd`` is TuckerMPI's algorithm (Gram-SVD ST-HOSVD) in
float64, single-threaded: the baseline `ref_ratio` divides by.  It is
timed in the same process as the solves it is compared with, so host
drift cancels in the ratio.  ``rel_error`` is the benchmark's accuracy
check, computed in float64 against the generator's tensor.
"""

from __future__ import annotations

import hashlib

import numpy as np


def reference_sthosvd(x: np.ndarray, tol: float):
    """Gram-SVD ST-HOSVD of a C-contiguous float64 tensor -> (core, factors)."""
    budget = tol * tol * float(np.vdot(x, x)) / x.ndim
    y, factors = x, []
    for n in range(x.ndim):
        m = np.moveaxis(y, n, 0).reshape(y.shape[n], -1)
        w, v = np.linalg.eigh(m @ m.T)
        w, v = np.abs(w[::-1]), v[:, ::-1]
        tail = np.append(np.cumsum(w[::-1])[::-1], 0.0)
        r = max(int(np.nonzero(tail <= budget)[0][0]), 1)
        factors.append(v[:, :r])
        y = np.moveaxis(np.tensordot(v[:, :r].T, y, axes=(1, n)), 0, n)
    return y, factors


def reconstruct(core: np.ndarray, factors) -> np.ndarray:
    """``core x_0 U_0 ... x_{N-1} U_{N-1}`` in float64."""
    y = np.asarray(core, dtype=np.float64)
    for n, u in enumerate(factors):
        u = np.asarray(u, dtype=np.float64)
        y = np.moveaxis(np.tensordot(u, y, axes=(1, n)), 0, n)
    return y


def rel_error(x64: np.ndarray, core: np.ndarray, factors) -> float:
    """``||X - X_hat|| / ||X||`` accumulated in float64."""
    diff = reconstruct(core, factors)
    diff -= x64
    return float(np.linalg.norm(diff.ravel()) / np.linalg.norm(x64.ravel()))


def compression_ratio(shape, core_shape, factors) -> float:
    """Input elements over stored core + factor elements."""
    stored = int(np.prod(core_shape)) + sum(int(np.size(u)) for u in factors)
    return int(np.prod(shape)) / stored


def digest(arrays) -> str:
    """Hash of the exact bytes (and shapes) of a sequence of arrays."""
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()
