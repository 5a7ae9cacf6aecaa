"""Flop-count formulas for the kernels used by ST-HOSVD (Sec. 3.5).

Counts follow the standard LAPACK conventions (Golub & Van Loan):

* Householder QR of an ``m x n`` tall matrix (``m >= n``), R only:
  ``2 m n^2 - (2/3) n^3``.
* LQ of a short-fat ``m x n`` (``m <= n``): same with roles swapped:
  ``2 n m^2 - (2/3) m^3``.
* Gram matrix (syrk) of ``m x n``: ``n m^2`` (symmetric half).
* ``tpqrt`` of an upper-triangular ``n x n`` on top of a pentagonal
  ``m x n`` block whose last ``l`` rows are triangular: the structured
  count below.
* Symmetric eigendecomposition (values + vectors) of ``n x n``: ``~9 n^3``.
* SVD of a square ``n x n`` (values + left vectors): ``~12 n^3``.

These are used both for counter-based verification in tests and by the
performance model to convert algorithm schedules into modeled time.
"""

from __future__ import annotations

__all__ = [
    "qr_flops",
    "lq_flops",
    "gram_flops",
    "tpqrt_flops",
    "eigh_flops",
    "svd_flops",
    "gemm_flops",
]


def qr_flops(m: int, n: int) -> int:
    """Householder QR (R only) of an ``m x n`` matrix with ``m >= n``."""
    if m < n:
        raise ValueError("qr_flops expects a tall (or square) matrix")
    return int(2 * m * n * n - (2 * n**3) // 3)


def lq_flops(m: int, n: int) -> int:
    """Householder LQ (L only) of an ``m x n`` matrix with ``m <= n``."""
    if m > n:
        raise ValueError("lq_flops expects a short-fat (or square) matrix")
    return int(2 * n * m * m - (2 * m**3) // 3)


def gram_flops(m: int, n: int) -> int:
    """syrk computing the ``m x m`` Gram matrix of an ``m x n`` unfolding."""
    return int(n * m * m)


def tpqrt_flops(n: int, m: int, l: int = 0) -> int:
    """Structured QR of ``[R; B]``: ``R`` upper-triangular ``n x n``, ``B``
    ``m x n`` pentagonal whose last ``l`` rows are upper-trapezoidal.

    For column ``j`` the reflector touches ``R[j, j]`` plus the nonzero
    rows of ``B[:, j]`` (all ``m`` rows when rectangular; ``j+1`` rows of
    a triangular block); the trailing update applies it to ``n - j - 1``
    remaining columns at ``~4 rows_j`` flops per column.

    The two cases of interest:

    * rectangular ``B`` (``l = 0``): ``~2 n^2 m`` flops (tall-matrix cost
      of annihilating a full block against a triangle);
    * triangular ``B`` (``l = m = n``): ``~(2/3) n^3`` flops, the TSQR
      tree-reduction cost.
    """
    n, m, l = int(n), int(m), int(l)  # Python ints: no fixed-width wraparound
    if l < 0 or l > min(m, n):
        raise ValueError("pentagonal height l must satisfy 0 <= l <= min(m, n)")
    # Column j costs rows_j * (3 + 4 (n - j - 1)) — reflector formation
    # plus the trailing update — where rows_j counts B's structural
    # nonzeros in that column: the m - l rectangular rows plus
    # min(j + 1, l) rows of the trapezoid.  Summed in closed form: the
    # rectangular rows, the trapezoid's ramp (j < l), its plateau.
    rect = (m - l) * n * (2 * n + 1)
    ramp = (4 * n + 3) * l * (l + 1) // 2 - 2 * l * (l + 1) * (2 * l + 1) // 3
    plateau = l * (n - l) * (2 * (n - l) + 1)
    return int(rect + ramp + plateau)


def eigh_flops(n: int) -> int:
    """Symmetric eigendecomposition (values and vectors) of ``n x n``."""
    return int(9 * n**3)


def svd_flops(m: int, n: int, *, vectors: str = "left") -> int:
    """Dense SVD cost of an ``m x n`` matrix.

    ``vectors='left'`` (singular values + U only): the paper's use case
    after the LQ reduction, costed at ``~12 min(m,n)^2 max(m,n)``.
    """
    small, big = (m, n) if m <= n else (n, m)
    if vectors == "none":
        return int(4 * small * small * big)
    return int(12 * small * small * big)


def gemm_flops(m: int, k: int, n: int) -> int:
    """General matrix product ``(m x k) @ (k x n)``."""
    return int(2 * m * k * n)
