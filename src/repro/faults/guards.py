"""NaN/Inf guards for the per-mode factor computation.

A transient kernel fault (cosmic-ray bit flip, an unstable vendor
routine, or this package's own :class:`KernelFaultRule` injection) puts
non-finite values into a mode's factor matrix; everything downstream
silently inherits them.  :func:`guarded_mode_svd` wraps the parallel
per-mode SVD with a detection + escalation ladder:

1. compute with the requested method;
2. on non-finite output, retry with a numerically safer route — for
   QR-SVD, recompute the reduced triangle and solve it with sequential
   one-sided Jacobi on every rank; for the Gram baseline, the full
   QR-SVD (the paper's own accuracy escalation);
3. still non-finite in single precision → recompute in float64 and cast
   back;
4. still non-finite → :class:`~repro.errors.ConvergenceError`.

Detection and the decision to escalate use only *replicated* data (every
rank decomposes the same bitwise-replicated triangle or Gram matrix,
which makes the factor bitwise identical everywhere), so all ranks take
the same branch and collective matching is preserved — the guard is
itself SPMD-safe.  Every escalation is returned in the driver's
``result.numeric_recoveries`` and opens an ``ft.numeric_recovery`` span
whose ``action`` attribute names the rung (the tracer and the flight
recorder both see it), so ``repro trace`` output shows what degraded
and how it was repaired.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError
from ..obs.tracer import trace_span

__all__ = ["guarded_mode_svd", "factors_finite"]


def factors_finite(U: np.ndarray, sigma: np.ndarray | None = None) -> bool:
    """True when the factor (and sigma) contain only finite values."""
    if not bool(np.isfinite(U).all()):
        return False
    return sigma is None or bool(np.isfinite(sigma).all())


def guarded_mode_svd(
    current,
    n: int,
    *,
    method: str,
    counter=None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-mode parallel SVD with NaN/Inf detection and escalation.

    Returns ``(U, sigma, recoveries)`` where ``recoveries`` lists the
    escalation actions taken (empty on the clean path).  Collective
    over ``current``'s communicator, like the kernels it wraps.
    """
    from ..dist.svd import (
        _reduced_triangle, par_tensor_gram_svd, par_tensor_qr_svd,
    )

    def attempt(compute):
        """Run one rung; non-finite input can also make the solver
        *raise* (LAPACK's gesvd reports non-convergence on NaN, the
        Jacobi sweep hits its sweep cap) — treat that exactly like
        non-finite output and move to the next rung."""
        try:
            U, sigma = compute()
        except (np.linalg.LinAlgError, ConvergenceError):
            return None, None, False
        return U, sigma, factors_finite(U, sigma)

    def solve(dt):
        if method == "qr":
            return par_tensor_qr_svd(dt, n, counter=counter)
        return par_tensor_gram_svd(dt, n, counter=counter)

    def qr_jacobi():
        # The input is bitwise replicated, so every rank's sequential
        # sweep yields the same factors: no gather needed.
        from ..linalg.jacobi import jacobi_left_svd

        L = _reduced_triangle(current, n, counter)
        return jacobi_left_svd(L, counter=counter, mode=n)

    U, sigma, ok = attempt(lambda: solve(current))
    if ok:
        return U, sigma, []

    recoveries: list[str] = []
    # Rung 1: a numerically safer route at the same precision.
    action = "qr->jacobi" if method == "qr" else "gram->qr"
    recoveries.append(action)
    with trace_span("ft.numeric_recovery", mode=n, action=action):
        if method == "qr":
            U, sigma, ok = attempt(qr_jacobi)
        else:
            U, sigma, ok = attempt(
                lambda: par_tensor_qr_svd(current, n, counter=counter))
    if ok:
        return U, sigma, recoveries

    # Rung 2: escalate single precision to double, then cast back so
    # the driver's working dtype is preserved.
    orig = np.dtype(current.dtype)
    if orig == np.float32:
        action = "float32->float64"
        recoveries.append(action)
        with trace_span("ft.numeric_recovery", mode=n, action=action):
            wide = current.astype(np.float64)
            U, sigma, ok = attempt(lambda: solve(wide))
        if ok:
            return U.astype(orig), sigma.astype(orig), recoveries

    raise ConvergenceError(
        f"mode-{n} factor is non-finite after escalation "
        f"({', '.join(recoveries)}); input data may be corrupt"
    )
