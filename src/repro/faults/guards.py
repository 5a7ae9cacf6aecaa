"""NaN/Inf guards for the per-mode factor computation.

A transient kernel fault (cosmic-ray bit flip, an unstable vendor
routine, or this package's own :class:`KernelFaultRule` injection) puts
non-finite values into a mode's factor matrix; everything downstream
silently inherits them.  :func:`guarded_mode_svd` wraps the parallel
per-mode SVD with a detection + escalation ladder:

1. compute with the requested method;
2. on non-finite output, retry with a numerically safer route — the
   Jacobi triangle solver for QR-SVD, or the full QR-SVD in place of
   the Gram baseline (the paper's own accuracy escalation);
3. still non-finite in single precision → recompute in float64 and cast
   back;
4. still non-finite → :class:`~repro.errors.ConvergenceError`.

Detection and the decision to escalate use only *replicated* data (the
factor is bitwise identical on every rank under both SVD strategies),
so all ranks take the same branch and collective matching is preserved
— the guard is itself SPMD-safe.  Every escalation is reported through
the active tracer (an ``ft.numeric_recovery`` span plus
``ft.numeric_recoveries`` counters) so ``repro trace`` output shows
what degraded and how it was repaired.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError
from ..obs.tracer import current_tracer, trace_span

__all__ = ["guarded_mode_svd", "factors_finite"]


def factors_finite(U: np.ndarray, sigma: np.ndarray | None = None) -> bool:
    """True when the factor (and sigma) contain only finite values."""
    if not bool(np.isfinite(U).all()):
        return False
    return sigma is None or bool(np.isfinite(sigma).all())


def _note_recovery(action: str) -> None:
    t = current_tracer()
    if t is not None:
        t.metrics.counter("ft.numeric_recoveries").inc()
        t.metrics.counter(f"ft.numeric_recoveries[{action}]").inc()


def guarded_mode_svd(
    current,
    n: int,
    *,
    method: str,
    svd_strategy: str = "replicated",
    counter=None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-mode parallel SVD with NaN/Inf detection and escalation.

    Returns ``(U, sigma, recoveries)`` where ``recoveries`` lists the
    escalation actions taken (empty on the clean path).  Collective
    over ``current``'s communicator, like the kernels it wraps.
    """
    from ..dist.svd import par_tensor_gram_svd, par_tensor_qr_svd

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

    def qr(dt, solver):
        return par_tensor_qr_svd(
            dt, n, triangle_solver=solver, strategy=svd_strategy,
            counter=counter,
        )

    def gram(dt):
        return par_tensor_gram_svd(
            dt, n, strategy=svd_strategy, counter=counter,
        )

    if method == "qr":
        U, sigma, ok = attempt(lambda: qr(current, "lapack"))
    else:
        U, sigma, ok = attempt(lambda: gram(current))
    if ok:
        return U, sigma, []

    recoveries: list[str] = []
    # Rung 1: a numerically safer route at the same precision.
    action = "qr->jacobi" if method == "qr" else "gram->qr"
    recoveries.append(action)
    _note_recovery(action)
    with trace_span("ft.numeric_recovery", mode=n, action=action):
        if method == "qr":
            U, sigma, ok = attempt(lambda: qr(current, "jacobi"))
        else:
            U, sigma, ok = attempt(lambda: qr(current, "lapack"))
    if ok:
        return U, sigma, recoveries

    # Rung 2: escalate single precision to double, then cast back so
    # the driver's working dtype is preserved.
    orig = np.dtype(current.dtype)
    if orig == np.float32:
        action = "float32->float64"
        recoveries.append(action)
        _note_recovery(action)
        with trace_span("ft.numeric_recovery", mode=n, action=action):
            wide = current.astype(np.float64)
            if method == "qr":
                U, sigma, ok = attempt(lambda: qr(wide, "lapack"))
            else:
                U, sigma, ok = attempt(lambda: gram(wide))
        if ok:
            return U.astype(orig), sigma.astype(orig), recoveries

    raise ConvergenceError(
        f"mode-{n} factor is non-finite after escalation "
        f"({', '.join(recoveries)}); input data may be corrupt"
    )
