"""Structured QR of a triangle stacked on a pentagon (LAPACK ``tpqrt``).

This is the workhorse of both TSQR variants in the paper:

* **flat tree** (sequential Alg. 2): the current triangular factor is
  updated against each rectangular column block of the unfolding
  (``structure="rect"``);
* **butterfly tree** (parallel Alg. 3): two triangular factors from
  partner processors are reduced into one (``structure="tri"``).

Given ``R`` (``n x n`` upper triangular) and ``B`` (``m x n``; fully
rectangular, or upper triangular when ``m == n``), the routine computes
the QR decomposition of the stacked ``[R; B]`` matrix, overwriting ``R``
with the new triangular factor and (optionally) ``B`` with the
Householder reflectors.  The sparsity of both blocks is exploited: R's
zero lower triangle is never touched, and for triangular ``B`` column
``j``'s reflector only involves rows ``0..j``, cutting the reduction
cost from ``2n^3`` to ``~(2/3) n^3`` flops.

The default backend is LAPACK's own ``{s,d}tpqrt`` (pentagon height
``l = 0`` for a rectangle, ``l = n`` for a triangle); the per-column
Python kernel is the ``backend="householder"`` validation reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..instrument import FlopCounter, PHASE_LQ
from ..obs._hook import trace_span
from . import _capi
from .flops import tpqrt_flops

__all__ = ["tpqrt", "tpqrt_reduce_triangles"]

# The QR kernels: LAPACK, and the Python reference the tests check it against.
BACKENDS = ("lapack", "householder")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ConfigurationError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _inner_block(n: int) -> int:
    """Inner block size handed to LAPACK for an ``n``-column triangle: the
    measured best of {4..64} in both precisions (sweep in docs/algorithms.md)."""
    return min(n, 8 if n <= 64 else 16)


def tpqrt(
    R: np.ndarray,
    B: np.ndarray,
    *,
    structure: str = "rect",
    backend: str = "lapack",
    counter: FlopCounter | None = None,
    mode: int | None = None,
    keep_reflectors: bool = False,
) -> np.ndarray:
    """QR of ``[R; B]`` in place; returns the updated ``R``.

    Parameters
    ----------
    R:
        ``n x n`` upper triangular, overwritten with the new R factor.
        Must be writable; entries below the diagonal are ignored.
    B:
        ``m x n`` block to annihilate.  Overwritten (with reflectors if
        ``keep_reflectors``, zeros otherwise — B is conceptually
        eliminated).
    structure:
        ``"rect"`` for a dense ``B`` (flat-tree block step), ``"tri"``
        for an upper-triangular ``B`` with ``m == n`` (tree reduction).
    backend:
        ``"lapack"`` calls ``{s,d}tpqrt``, in place when ``R`` and ``B``
        are Fortran-ordered (other layouts cost a copy each way);
        ``"householder"`` runs the Python column loop.  Anything else
        raises :class:`~repro.errors.ConfigurationError`.
    counter:
        Optional flop counter credited under the LQ phase.
    keep_reflectors:
        Keep the Householder vectors in ``B`` (needed only if a caller
        wants to apply/form Q, which ST-HOSVD never does).

    Notes
    -----
    The reflector for column ``j`` is ``[e_j; v_B]`` with the implicit 1
    at ``R[j, j]`` and support only in the active rows of ``B``; rows
    ``j+1..n-1`` of ``R`` are untouched, preserving its triangularity.
    """
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeError("R must be square upper triangular")
    n = R.shape[1]
    if B.ndim != 2 or B.shape[1] != n:
        raise ShapeError(f"B must have {n} columns to match R")
    m = B.shape[0]
    if structure not in ("rect", "tri"):
        raise ShapeError(f"unknown structure {structure!r}")
    if structure == "tri" and m != n:
        raise ShapeError("triangular B must be square")
    if R.dtype != B.dtype:
        raise ShapeError(f"dtype mismatch: R {R.dtype} vs B {B.dtype}")
    _check_backend(backend)
    _fold(R, B, n if structure == "tri" else 0, backend, keep_reflectors,
          counter, mode, _capi.Workspace())
    return R


def _fold(R, B, l, backend, keep_reflectors, counter, mode, ws: _capi.Workspace) -> None:
    """:func:`tpqrt` after its argument checks; ``ws`` is the LAPACK scratch
    a caller folding many blocks (the flat tree) hands to every step."""
    if backend == "lapack":
        _tpqrt_lapack(R, B, l, keep_reflectors, ws)
    else:
        _tpqrt_householder(R, B, l, keep_reflectors)
    if counter is not None:
        counter.add(tpqrt_flops(R.shape[1], B.shape[0], l), phase=PHASE_LQ, mode=mode)


def _tpqrt_lapack(
    R: np.ndarray, B: np.ndarray, l: int, keep_reflectors: bool, ws: _capi.Workspace
) -> None:
    if B.size:
        out_r, out_b = np.asfortranarray(R), np.asfortranarray(B)
        _capi.tpqrt(l, _inner_block(R.shape[1]), out_r, out_b, ws)
        if out_r is not R:
            R[...] = out_r
        if keep_reflectors and out_b is not B:
            B[...] = out_b
    if not keep_reflectors:
        # LAPACK never references a triangular B's strict lower part.
        B[...] = np.tril(B, -1) if l else 0


def _tpqrt_householder(R: np.ndarray, B: np.ndarray, l: int, keep_reflectors: bool) -> None:
    n = R.shape[1]
    m = B.shape[0]
    dt = R.dtype

    for j in range(n):
        nb = min(j + 1, m) if l else m
        if nb == 0:
            continue
        xb = B[:nb, j]
        alpha = R[j, j]
        signorm = np.linalg.norm(xb)
        if signorm == 0:
            continue
        full = np.hypot(alpha, signorm)
        beta = -full if alpha >= 0 else full
        v0 = alpha - beta
        vb = xb / v0
        tau = dt.type((beta - alpha) / beta)
        R[j, j] = beta
        if j + 1 < n:
            # w = (row j of R) + vb^T B for the trailing columns
            w = R[j, j + 1 :] + vb @ B[:nb, j + 1 :]
            R[j, j + 1 :] -= tau * w
            B[:nb, j + 1 :] -= tau * np.outer(vb, w)
        if keep_reflectors:
            B[:nb, j] = vb
        else:
            B[:nb, j] = 0


def tpqrt_reduce_triangles(
    R_top: np.ndarray,
    R_bottom: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    mode: int | None = None,
) -> np.ndarray:
    """TSQR tree-reduction step: R factor of two stacked upper triangles.

    Neither input is modified; a fresh ``n x n`` upper triangular array
    is returned.  This is the deterministic reduction operator used by
    the butterfly all-reduce in parallel Alg. 3 — both partners stack
    (lower-rank factor on top) and obtain bitwise-identical results.
    """
    if R_top.shape != R_bottom.shape or R_top.shape[0] != R_top.shape[1]:
        raise ShapeError("tree reduction expects two equal square triangles")
    with trace_span("tpqrt", phase=PHASE_LQ, mode=mode, n=R_top.shape[0]):
        R = np.asfortranarray(np.triu(R_top))
        B = np.array(R_bottom, order="F")  # strict lower part is never read
        return np.ascontiguousarray(
            tpqrt(R, B, structure="tri", counter=counter, mode=mode,
                  keep_reflectors=True)
        )
