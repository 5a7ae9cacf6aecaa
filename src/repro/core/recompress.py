"""Tucker recompression (rounding): re-truncate without the original data.

A compressed archive at tolerance 1e-6 contains everything needed to
produce the 1e-4 or fixed-rank version: because the factors have
orthonormal columns, the approximation error of truncating the *core*
adds orthogonally to the existing error.  So recompression is just
ST-HOSVD of the (small) core followed by factor merging:

    X ≈ G x_n U_n,   G ≈ H x_n V_n   ⇒   X ≈ H x_n (U_n V_n)

This is the tensor analogue of TT-rounding and the standard way archives
are served at multiple fidelities from a single tight-tolerance master.
The total error is bounded by ``sqrt(old² + new²)`` of the relative
errors (orthogonal components), which the function reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .sthosvd import sthosvd
from .tucker import TuckerTensor

__all__ = ["recompress"]


def recompress(
    tucker: TuckerTensor,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    prior_rel_error: float = 0.0,
) -> tuple[TuckerTensor, float]:
    """Further truncate a Tucker decomposition using only its own data.

    Parameters
    ----------
    tucker:
        The existing decomposition (e.g. loaded from an archive).
    tol:
        Relative tolerance for the *core* truncation.  Note the
        original data's norm is within ``(1 ± prior)`` of the core's, so
        for loose retargets this is effectively the new overall target.
    ranks:
        Fixed target ranks instead of a tolerance (must not exceed the
        current ranks — recompression only shrinks).
    method:
        Per-mode SVD algorithm for the core's ST-HOSVD.
    prior_rel_error:
        The archive's own relative error (from its manifest); folded
        into the returned bound.

    Returns
    -------
    (TuckerTensor, float)
        The recompressed decomposition and the bound
        ``sqrt(prior^2 + new_core_error^2)`` on its relative error
        with respect to the *original* data.
    """
    if ranks is not None:
        ranks = tuple(int(r) for r in ranks)
        # The rank count and range are sthosvd's to check.
        for n, (r, cur) in enumerate(zip(ranks, tucker.ranks)):
            if r > cur:
                raise ConfigurationError(
                    f"recompression cannot grow mode {n}: {r} > current {cur}"
                )
    res = sthosvd(tucker.core, tol=tol, ranks=ranks, method=method)
    merged = tuple(
        np.ascontiguousarray(U @ V)
        for U, V in zip(tucker.factors, res.tucker.factors)
    )
    new_core_err = res.estimated_rel_error()
    bound = float(np.sqrt(prior_rel_error**2 + new_core_err**2))
    return TuckerTensor(core=res.tucker.core, factors=merged), bound
