"""The one mode loop every Tucker driver is composed from.

The paper changes *one step* of ST-HOSVD's mode loop (Alg. 1: Gram-SVD
becomes QR-SVD), and every driver here — sequential, out-of-core,
distributed; ST-HOSVD, HOSVD, HOOI — is that loop over a different kind
of tensor.  This module owns it once:

* the **truncation rule**: :func:`resolve_truncation` checks the
  ``tol``-xor-``ranks`` configuration, :func:`pick_rank` applies it;
* the **mode solver**: :func:`solve_mode` gives ``(U, sigma)`` of a mode
  unfolding of a ``DenseTensor``, ``OutOfCoreTensor`` or
  ``DistributedTensor``; ``SUPPORTED_METHODS`` says which has which;
* the **truncation**: :func:`truncate_mode`, the kind's TTM, flop-counted
  and traced as the ``ttm`` phase;
* the three **loop shapes** built from them: :func:`truncated_loop`
  (ST-HOSVD), :func:`factors_then_core` (HOSVD), :func:`hooi_sweeps`;
* the **recover-and-resume loop** of a checkpointed distributed run,
  :func:`recovering`, which survives rank failures.

Each of the three drivers (``sthosvd``, ``hosvd``, ``hooi``) takes any
kind of tensor, checks it with :func:`work_input`, opens a
:class:`ModeLoop`, calls one loop shape and adds its kind's side effects
(scratch files, checkpoints) through ``after_mode`` / ``after_sweep``.
A new per-mode solver is one more ``SUPPORTED_METHODS`` entry plus its
branch in :func:`solve_mode`; every driver then has it.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, RankFailedError
from ..instrument import FlopCounter, PHASE_SVD, PHASE_TTM
from ..obs._hook import trace_span
from ..linalg.gram import tensor_gram
from ..linalg.svd import left_svd_of_triangle, svd_from_gram
from ..linalg.tensor_lq import tensor_lq
from ..tensor.dense import DenseTensor
from ..tensor.ttm import ttm, ttm_flops
from .truncation import choose_rank, error_budget_per_mode, tail_energy

if TYPE_CHECKING:
    from ..dist.dtensor import DistributedTensor

__all__ = [
    "METHODS", "SUPPORTED_METHODS", "KIND_OPTIONS", "kind_of", "ModeLoop",
    "work_input", "open_loop",
    "measure_norm", "resolve_truncation", "pick_rank", "solve_mode",
    "truncate_mode", "truncated_loop", "factors_then_core", "hooi_sweeps",
    "MAX_RECOVERIES", "recovering",
]

# "qr" and "gram" are the paper's two algorithms; "gram-mixed" (float64
# accumulation of a float32 Gram) and "randomized" (HMT sketch; requires
# explicit ranks) implement the future-work extensions of its Sec. 5.
METHODS = ("qr", "gram", "gram-mixed", "randomized")

# The kinds a driver tells apart beside the dense one, in the order
# :func:`kind_of` tests them, each by the module that defines it.
_KINDS = (
    ("DistributedTensor", "repro.dist.dtensor"),
    ("OutOfCoreTensor", "repro.data.outofcore"),
)


def kind_of(tensor) -> str:
    """``"DistributedTensor"``, ``"OutOfCoreTensor"`` or ``"DenseTensor"``:
    the arm ``tensor`` takes (the dense one takes whatever else comes).

    A kind is looked up where its module has been imported, never by
    importing it: an instance of a class whose module was never loaded
    cannot exist, so `import repro` and a dense solve load neither
    layout.
    """
    for kind, module in _KINDS:
        home = sys.modules.get(module)
        if home is not None and isinstance(tensor, getattr(home, kind)):
            return kind
    return "DenseTensor"


# Which solvers each tensor kind has.
SUPPORTED_METHODS = {
    "DistributedTensor": ("qr", "gram"),
    "OutOfCoreTensor": ("qr", "gram"),
    "DenseTensor": METHODS,
}

# The driver keywords only one kind reads.  Given (not None) with any
# other kind, :func:`work_input` refuses them.
KIND_OPTIONS = {
    "DistributedTensor": ("checkpoint",),
    "OutOfCoreTensor": ("max_elements", "workdir", "checkpoint_dir"),
    "DenseTensor": ("svd_options", "init"),
}


@dataclass
class ModeLoop:
    """What one run carries from mode to mode.

    ``method`` plus the solver options (``svd_options`` .. ``workdir``) pick
    and tune the per-mode solver.  ``ranks``/``tol`` are the checked
    truncation rule: fixed ranks, or the per-mode error budget that
    ``tol`` takes from ``norm_sq``, the squared norm of the original
    input (a checkpoint stores this very number); ``norm_x`` is its
    square root.  ``norm_sq`` stays unset until the first mode is
    solved: a run that starts from the input is never read for its
    norm, that mode's spectrum carries it.
    ``factors``/``sigmas``/``recoveries`` fill in as modes complete,
    ``failures`` as a checkpointed distributed run survives rank
    failures (:func:`recovering`); ``counter`` is the run's flop
    breakdown (its time breakdown is the spans a ``Tracer`` records);
    ``progress`` receives one event per completed mode.
    """

    method: str
    ranks: tuple[int, ...] | None = None
    tol: float | None = None
    norm_sq: float | None = None
    svd_options: dict | None = None
    max_elements: int | None = None  # the streamed arm sets it
    workdir: str | None = None
    progress: Callable[[dict], None] | None = None
    factors: list = field(default_factory=list)
    sigmas: dict = field(default_factory=dict)
    recoveries: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    counter: FlopCounter = field(default_factory=FlopCounter)

    @property
    def norm_x(self) -> float:
        return float(np.sqrt(self.norm_sq))


def work_input(tensor, precision=None, *, out_of_core: bool = True,
               **options):
    """``tensor`` as a driver works on it, in the working ``precision``.

    A ``DistributedTensor`` or ``OutOfCoreTensor`` keeps its kind (the
    latter only for a driver with ``out_of_core``); anything else becomes
    a ``DenseTensor``.  ``options`` are the call's per-kind keywords, None
    when not given; one that ``KIND_OPTIONS`` leaves to another kind is a
    ``ConfigurationError``, never silently ignored.
    """
    kind = kind_of(tensor)
    if kind == "DenseTensor":
        work = tensor if isinstance(tensor, DenseTensor) else DenseTensor(tensor)
    elif kind == "OutOfCoreTensor" and not out_of_core:
        raise ConfigurationError(
            "only sthosvd streams an OutOfCoreTensor: there is no "
            "out-of-core HOSVD or HOOI")
    else:
        work = tensor
    for name, value in options.items():
        if value is not None and name not in KIND_OPTIONS[kind]:
            owner = next(k for k, names in KIND_OPTIONS.items() if name in names)
            raise ConfigurationError(
                f"{name}= is read only on {owner} input; this input is {kind}")
    return work if precision is None else work.astype(precision)


def _shape(work) -> tuple[int, ...]:
    if kind_of(work) == "DistributedTensor":
        return work.global_shape
    return work.shape


def resolve_truncation(
    shape: Sequence[int], tol: float | None, ranks: Sequence[int] | None
) -> tuple[int, ...] | None:
    """Validate a run's rank rule; returns ``ranks`` as a checked tuple.

    Exactly one of ``tol``/``ranks`` may be given (neither means no
    truncation), and fixed ranks need one entry per mode, each within
    ``1..I_n``.
    """
    if tol is not None and ranks is not None:
        raise ConfigurationError("pass either tol or ranks, not both")
    if ranks is None:
        return None
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise ConfigurationError(f"need {len(shape)} ranks, got {len(ranks)}")
    for n, (r, i) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= i:
            raise ConfigurationError(f"rank {r} invalid for mode {n} of size {i}")
    return ranks


def open_loop(work, *, method: str, tol=None, ranks=None,
              **options) -> ModeLoop:
    """Check ``method`` and the rank rule against ``work``; open its loop.

    ``work`` is not read.  A run that starts from the input takes
    ``||X||^2`` from its first solved mode's spectrum; a resumed run,
    whose ``work`` is already truncated, sets ``loop.norm_sq`` to the
    number the interrupted run budgeted from.
    """
    kind = kind_of(work)
    allowed = SUPPORTED_METHODS[kind]
    if method not in allowed:
        raise ConfigurationError(
            f"{kind} drivers support methods {allowed}, got {method!r}"
        )
    if method == "randomized" and ranks is None:
        raise ConfigurationError(
            "method='randomized' sketches to a target rank: pass ranks="
        )
    if options.get("svd_options") and method != "randomized":
        raise ConfigurationError(
            f"svd_options tune method='randomized' only; method={method!r} "
            "reads none"
        )
    shape = _shape(work)
    loop = ModeLoop(method=method, ranks=resolve_truncation(shape, tol, ranks),
                    tol=tol, factors=[None] * len(shape),
                    **options)
    if tol is not None:
        error_budget_per_mode(0.0, tol, len(shape))  # refuse a bad tol up front
    return loop


def measure_norm(loop: ModeLoop, tensor) -> None:
    """``||X||`` by a pass over ``tensor`` (collective on a distributed one).

    Only for a run whose first solve does not carry it: HOOI, which
    solves a contracted partial and whose fit divides by ``||X||``, and
    ``method="randomized"``, whose spectrum is cut at the sketch width.
    """
    loop.norm_sq = tensor.norm_squared()


def pick_rank(loop: ModeLoop, sigma: np.ndarray, n: int) -> int:
    """Rank kept for mode ``n`` given its singular values.

    With a tolerance, the smallest rank whose discarded tail fits the
    per-mode budget; with fixed ranks, ``ranks[n]``; with neither,
    everything.
    """
    if loop.tol is not None:
        return choose_rank(sigma, error_budget_per_mode(
            loop.norm_sq, loop.tol, len(loop.factors)))
    if loop.ranks is not None:
        return loop.ranks[n]
    return len(sigma)


def solve_mode(
    loop: ModeLoop, work, n: int, label: str = ""
) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and values of ``work``'s mode-``n`` unfolding.

    The reduction (LQ or Gram) and the small decomposition (SVD or EVD)
    each run inside a span of their phase and mode — the paper's
    breakdown, which an active ``Tracer`` records; on a distributed
    tensor those spans come from the guarded solve
    (:func:`~repro.faults.guards.guarded_mode_svd`, collective), with
    its communication in ``comm`` spans inside them.  Escalations the
    guard took are appended to ``loop.recoveries`` under ``label``.
    """
    method, counter = loop.method, loop.counter
    kind = kind_of(work)
    if kind == "DistributedTensor":
        from ..faults.guards import guarded_mode_svd

        U, sigma, recovered = guarded_mode_svd(
            work, n, method=method, counter=counter)
        loop.recoveries.extend(f"{label}mode{n}:{action}" for action in recovered)
        return U, sigma
    if method == "randomized":
        from ..linalg.randomized import tensor_randomized_svd

        opts = dict(loop.svd_options or {})
        opts.setdefault("rng", n)
        if loop.norm_sq is None:  # a sketch's spectrum is cut short
            measure_norm(loop, work)
        with trace_span("randomized", phase=PHASE_SVD, mode=n):
            return tensor_randomized_svd(
                work, n, loop.ranks[n], counter=counter, **opts)
    streamed = kind == "OutOfCoreTensor"
    if method == "qr":
        if streamed:
            # At call time: `import repro` does not load the streamed kernels.
            from . import outofcore

            L = outofcore.ooc_tensor_lq(
                work, n, max_elements=loop.max_elements, counter=counter)
        else:
            L = tensor_lq(work, n, counter=counter)
        return left_svd_of_triangle(L, counter=counter, mode=n)
    if streamed:
        from . import outofcore

        G = outofcore.ooc_tensor_gram(
            work, n, max_elements=loop.max_elements, counter=counter)
    else:
        accumulate = "double" if method == "gram-mixed" else None
        G = tensor_gram(work, n, counter=counter, accumulate=accumulate)
    return svd_from_gram(G, counter=counter, mode=n)


def truncate_mode(loop: ModeLoop, work, U: np.ndarray, n: int):
    """``work x_n U^T``: mode ``n`` shrinks to ``U.shape[1]``, in a
    ``ttm`` span of mode ``n``.

    Dense tensors use :func:`~repro.tensor.ttm.ttm`; out-of-core ones
    stream to ``<loop.workdir>/mode<n>.bin``; distributed ones use the
    collective :func:`~repro.dist.ttm.par_ttm_truncate`, which opens the
    span itself.
    """
    counter = loop.counter
    kind = kind_of(work)
    if kind == "DistributedTensor":
        from ..dist.ttm import par_ttm_truncate

        return par_ttm_truncate(work, U, n, counter=counter)
    with trace_span("ttm", phase=PHASE_TTM, mode=n):
        counter.add(ttm_flops(work.shape, n, U.shape[1]), phase=PHASE_TTM, mode=n)
        if kind == "OutOfCoreTensor":
            return work.ttm_truncate_to_file(
                U, n, os.path.join(loop.workdir, f"mode{n}.bin"),
                max_elements=loop.max_elements,
            )
        return ttm(work, U, n, transpose=True)


def _factor(loop: ModeLoop, work, n: int, label: str = "") -> np.ndarray:
    """Solve mode ``n``, record its sigmas, keep the picked leading columns."""
    U, sigma = solve_mode(loop, work, n, label)
    if loop.norm_sq is None:
        # First solve of a run that starts from the input: ||X||^2 is the
        # energy of any unfolding's full spectrum — the float64 sum the
        # rank choice measures its tails against.
        loop.norm_sq = float(tail_energy(sigma)[0])
    loop.sigmas[n] = sigma
    loop.factors[n] = np.ascontiguousarray(U[:, : pick_rank(loop, sigma, n)])
    return loop.factors[n]


def _report(loop: ModeLoop, began: float, mode_began: float, n: int, ranks,
            step: int, total_steps: int, **extra) -> None:
    """The one progress event every driver with ``progress=`` emits."""
    if loop.progress is None:
        return
    now = time.perf_counter()
    loop.progress({
        "step": step,
        "total_steps": total_steps,
        **extra,
        "mode": n,
        "rank": int(loop.factors[n].shape[1]),
        "ranks": tuple(ranks),
        "seconds": now - mode_began,
        "elapsed": now - began,
    })


def truncated_loop(loop: ModeLoop, work, order: Sequence[int], *,
                   start: int = 0, after_mode=None):
    """Sequentially-truncated shape (ST-HOSVD, Alg. 1); returns the core.

    For each mode of ``order`` from step ``start``: solve, pick the
    rank, truncate, move on with the shrunk tensor.  ``after_mode(step,
    work)`` runs after each completed step (1-based) with the tensor
    that step produced — the drivers' scratch rotation and checkpoints.
    """
    began = time.perf_counter()
    for step, n in enumerate(order):
        if step < start:
            continue
        mode_began = time.perf_counter()
        with trace_span("sthosvd.mode", mode=n, step=step):
            U_n = _factor(loop, work, n)
            work = truncate_mode(loop, work, U_n, n)
            if after_mode is not None:
                after_mode(step + 1, work)
        _report(loop, began, mode_began, n, _shape(work), step + 1, len(order))
    return work


def factors_then_core(loop: ModeLoop, tensor):
    """All-factors-then-core shape (classic HOSVD); returns the core.

    Every factor comes from the original ``tensor``; the core is the
    chain of truncations at the end.
    """
    modes = range(len(loop.factors))
    for n in modes:
        _factor(loop, tensor, n)
    core = tensor
    for n in modes:
        core = truncate_mode(loop, core, loop.factors[n], n)
    return core


def hooi_sweeps(loop: ModeLoop, tensor, fits: list, *,
                max_iters: int, fit_tol: float, after_sweep=None):
    """HOOI sweeps until the fit stalls; returns ``(core, converged)``.

    Each sweep refreshes every factor from ``tensor`` contracted with
    all the *other* current factors (``loop.factors``, fixed
    ``loop.ranks``); the last mode's contraction yields the core.  The
    fit ``||core|| / loop.norm_x`` is appended to ``fits`` — sweeps resume at
    ``len(fits)`` — and ``after_sweep(sweeps_done)`` runs before the
    convergence test, so a checkpoint taken there replays it exactly.
    """
    began = time.perf_counter()
    ndim = len(loop.factors)
    core = None
    for iteration in range(len(fits), max_iters):
        for n in range(ndim):
            mode_began = time.perf_counter()
            with trace_span("hooi.mode", mode=n, iteration=iteration):
                partial = tensor
                for k in range(ndim):
                    if k != n:
                        partial = truncate_mode(loop, partial, loop.factors[k], k)
                _factor(loop, partial, n, f"iter{iteration}:")
                # The last mode's contraction gives the core for free.
                if n == ndim - 1:
                    core = truncate_mode(loop, partial, loop.factors[n], n)
            _report(loop, began, mode_began, n, loop.ranks,
                    iteration * ndim + n + 1, max_iters * ndim,
                    iteration=iteration)
        fits.append(float(core.norm() / loop.norm_x if loop.norm_x > 0 else 1.0))
        if after_sweep is not None:
            after_sweep(iteration + 1)
        if iteration > 0 and abs(fits[-1] - fits[-2]) < fit_tol:
            return core, True
    return core, False


# Rank failures one checkpointed distributed run survives; one more
# re-raises the first.
MAX_RECOVERIES = 2


def recovering(attempt, tensor: DistributedTensor, checkpoint, order,
               events: list):
    """``attempt(tensor, meta)`` until it completes, surviving rank failures.

    The recover-and-resume loop of ``sthosvd``/``hooi`` on a
    ``DistributedTensor`` with a ``checkpoint``
    (:class:`~repro.faults.DistributedCheckpoint`), collective over
    ``tensor.comm`` inside ``run_spmd(resilience=True)``.  ``meta`` is
    None for a run from the input; else it is the replicated state of
    the checkpointed step to resume after, and ``tensor`` that step's
    tensor.  With ``checkpoint.ckpt_dir`` the first attempt resumes from
    the newest manifest committed there, if any.

    On a :class:`~repro.errors.RankFailedError` the survivors revoke the
    failed communicator (peers blocked in its collectives wake with
    :class:`~repro.errors.CommRevokedError`, a ``RankFailedError``, and
    land here too), shrink to a dense-ranked one, lay
    ``ProcessorGrid.for_size(size, ndim, order)`` over it and move the
    newest complete step's blocks to their owners on it
    (``checkpoint.recover``).  A failure during that loops back.
    ``events`` gets one ``("rank_failure", {...})`` per recovery, and a
    ``("disk_resume", {...})`` for a restart.  Past ``MAX_RECOVERIES``
    failures the first one re-raises, carrying ``recovery_history``.
    """
    from ..dist.dtensor import GridComms
    from ..dist.grid import ProcessorGrid

    meta, comm = None, tensor.comm
    if checkpoint.ckpt_dir is not None:
        with trace_span("ft.resume_disk"):
            disk = checkpoint.resume_from_disk(tensor)
        if disk is not None:
            step, meta, tensor = disk
            events.append(("disk_resume", {
                "resumed_step": step, "ckpt_dir": checkpoint.ckpt_dir}))
    failures, original, pending = 0, None, None
    while True:
        try:
            if pending is not None:
                with trace_span("ft.recover", attempt=failures):
                    comm.revoke()
                    comm = comm.shrink()
                    grid = ProcessorGrid.for_size(comm.size, tensor.ndim,
                                                  order)
                    step, meta, tensor = checkpoint.recover(
                        GridComms(comm, grid))
                events.append(("rank_failure", {
                    "recovery": failures, "survivors": comm.size,
                    "resumed_step": step,
                    "cause": f"{type(pending).__name__}: {pending}"}))
                pending = None
            return attempt(tensor, meta)
        except RankFailedError as exc:
            original = original or exc
            failures += 1
            if failures > MAX_RECOVERIES:
                # The failure that started the cascade, not whatever the
                # last doomed retry died of.
                original.recovery_history = tuple(events)
                if exc is original:
                    raise
                raise original from exc
            pending = exc
