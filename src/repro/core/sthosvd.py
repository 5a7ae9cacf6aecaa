"""ST-HOSVD (paper Alg. 1) with pluggable per-mode SVD, on any tensor kind.

For each mode in the chosen order: compute singular values and left
singular vectors of the current unfolding (QR-SVD via TensorLQ, or
TuckerMPI's Gram-SVD), pick the rank from the error budget, and truncate
with a TTM before moving on.  The working precision is whatever the
input tensor carries — convert with ``astype`` (or pass ``precision=``)
to run the paper's single-precision variants.

The tensor's kind picks the arm, as in :mod:`~repro.core.modeloop`:

* a ``DenseTensor`` (or array) runs in memory;
* a :class:`~repro.dist.dtensor.DistributedTensor` runs the SPMD
  kernels (Secs. 3.4-3.5), collective over its communicator: factors
  end replicated on every rank, the core keeps the input's block
  distribution, as TuckerMPI specifies;
* an :class:`~repro.data.outofcore.OutOfCoreTensor` streams a raw file
  larger than memory chunk by chunk (peak memory O(chunk + I_n^2)),
  truncating each mode into a scratch file; the core returns in memory.

>>> def program(comm):
...     comms = GridComms(comm, ProcessorGrid((1, 2, 2)))
...     dt = DistributedTensor.from_full(comms, X)
...     return sthosvd(dt, tol=1e-4, method="qr")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import FlopCounter
from ..precision import Precision, resolve_precision
from ..tensor.dense import DenseTensor
from ..util.validation import resolve_mode_order
from .modeloop import (
    METHODS, ModeLoop, kind_of, open_loop, recovering, truncated_loop,
    work_input)
from .truncation import truncation_rel_error
from .tucker import TuckerTensor

if TYPE_CHECKING:
    from ..data.outofcore import OutOfCoreTensor
    from ..dist.dtensor import DistributedTensor

__all__ = ["SthosvdResult", "sthosvd", "METHODS"]


class _Decomposition:
    """What every driver's result holds: a ``core`` of the input's kind
    (distributed for a ``DistributedTensor``, else a ``DenseTensor`` in
    memory) and ``factors`` replicated on every rank."""

    core: DenseTensor | DistributedTensor
    factors: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(int(U.shape[1]) for U in self.factors)

    @property
    def tucker(self) -> TuckerTensor:
        """The decomposition, when its core is in memory.  A distributed
        core is gathered by the collective :meth:`to_tucker` alone."""
        if kind_of(self.core) == "DistributedTensor":
            raise ConfigurationError(
                "the core is distributed: assemble it with the collective "
                "to_tucker() on every rank")
        return TuckerTensor(core=self.core, factors=self.factors)

    def to_tucker(self) -> TuckerTensor:
        """The decomposition on every rank (collective when the core is
        distributed: it gathers the core)."""
        if kind_of(self.core) == "DistributedTensor":
            return TuckerTensor(core=self.core.gather(), factors=self.factors)
        return self.tucker

    def compression_ratio(self) -> float:
        """Original element count over stored parameters (global)."""
        full = core = 1
        for U in self.factors:
            full *= U.shape[0]
            core *= U.shape[1]
        return full / (core + sum(int(U.size) for U in self.factors))


@dataclass
class SthosvdResult(_Decomposition):
    """Everything a run of ST-HOSVD or HOSVD produces; ``norm_x`` comes
    from the first processed mode's spectrum, not from a pass over the
    data: ``|norm_x^2 - ||X||^2| <= 64 eps ||X||^2`` in the working
    precision.

    Attributes
    ----------
    core, factors:
        The decomposition (see :class:`_Decomposition`); ``tucker`` or
        ``to_tucker()`` pairs them as a :class:`TuckerTensor`.
    sigmas:
        Per-mode singular values as computed when that mode was
        processed (keys are mode indices; values descending arrays),
        replicated.
    mode_order:
        The order in which modes were processed.
    method, precision:
        Algorithm/working-precision actually used.
    norm_x:
        Frobenius norm of the input: ``sqrt(sum sigma_i^2)`` (float64
        sum) of the first processed mode's spectrum, not a pass over
        the data (no allreduce: the same bits on every rank), measured
        under ``10 eps`` from the exact value (docs/algorithms.md,
        "Where ||X|| comes from"); ``method="randomized"`` measures it
        explicitly.
    flops:
        Operation counts by phase (LQ/Gram, SVD/EVD, TTM).  The
        wall-clock breakdown over the same phases is a
        :class:`~repro.obs.Tracer`'s: every phase of every mode runs
        inside a span tagged with it (``activate(Tracer())`` around a
        sequential call, ``run_spmd(..., tracer=)`` for a parallel one).
    numeric_recoveries:
        The NaN guard's escalations on a distributed tensor
        (``"mode<n>:<action>"``).
    rank_failures:
        A checkpointed distributed run's recoveries: one
        ``("rank_failure", {"survivors", "resumed_step", ...})`` per
        rank failure survived, and a ``("disk_resume", {...})`` for a
        restart from ``ckpt_dir``.  The core lives on the communicator
        the run finished on, ``core.comm``.
    """

    core: DenseTensor | DistributedTensor
    factors: tuple[np.ndarray, ...]
    sigmas: dict[int, np.ndarray]
    mode_order: tuple[int, ...]
    method: str
    precision: Precision
    norm_x: float
    flops: FlopCounter = field(default_factory=FlopCounter)
    numeric_recoveries: list = field(default_factory=list)
    rank_failures: list = field(default_factory=list)

    def estimated_rel_error(self) -> float:
        """Error estimate from discarded singular values (free at runtime).

        The squared truncation errors of the modes are orthogonal, so
        their sum bounds the squared approximation error [28].
        """
        return truncation_rel_error(self.sigmas, self.ranks, self.norm_x)

    @classmethod
    def _from_loop(cls, loop: ModeLoop, core, order):
        return cls(
            core=core,
            factors=tuple(loop.factors),
            sigmas=loop.sigmas,
            mode_order=tuple(order),
            method=loop.method,
            precision=resolve_precision(core.dtype),
            norm_x=loop.norm_x,
            flops=loop.counter,
            numeric_recoveries=loop.recoveries,
            rank_failures=loop.failures,
        )


def sthosvd(
    tensor: DenseTensor | np.ndarray | DistributedTensor | OutOfCoreTensor,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    precision=None,
    mode_order="forward",
    progress: Callable[[dict], None] | None = None,
    svd_options: dict | None = None,
    checkpoint=None,
    max_elements: int | None = None,
    workdir: str | None = None,
    checkpoint_dir: str | None = None,
) -> SthosvdResult:
    """Sequentially Truncated HOSVD of a dense, distributed or out-of-core
    tensor (collective over a distributed tensor's communicator).

    Parameters
    ----------
    tensor:
        Input data: ``DenseTensor`` or array-like, ``DistributedTensor``
        or ``OutOfCoreTensor``.
    tol:
        Relative error tolerance ``eps``; ranks are chosen so the
        approximation satisfies ``||X - X_hat|| <= tol * ||X||`` (in
        exact arithmetic — the paper's subject is precisely when
        roundoff breaks this).
    ranks:
        Fixed per-mode ranks instead of a tolerance.  Exactly one of
        ``tol``/``ranks`` may be given; with neither, no truncation is
        performed (full HOSVD — used for singular-value studies).
    method:
        ``"qr"`` (numerically stable QR-SVD, this paper; the LQ runs on
        LAPACK's ``tpqrt``) or ``"gram"`` (TuckerMPI's Gram-SVD
        baseline); a dense tensor also has ``"gram-mixed"`` and
        ``"randomized"`` (``SUPPORTED_METHODS``).
    precision:
        Optional working precision override (``"single"``/``"double"``,
        dtype, or :class:`Precision`); default is the input's dtype.  An
        out-of-core file keeps its storage precision and streams its
        chunks in this one.
    mode_order:
        ``"forward"``, ``"backward"``, or an explicit permutation.
    progress:
        Called once per completed mode (on rank 0 only, for a
        distributed tensor) with ``{"step", "total_steps", "mode",
        "rank", "ranks", "seconds", "elapsed"}`` (``seconds`` for this
        mode, ``elapsed`` since the run started).

    The keywords below belong to one kind each (``KIND_OPTIONS``); with
    any other kind they raise :class:`~repro.errors.ConfigurationError`.

    svd_options:
        Dense: extra keyword arguments for ``method="randomized"``'s
        sketch (``oversample``, ``power_iters``, ``rng``); any other
        method reads none and refuses them.
    checkpoint:
        Distributed: a :class:`~repro.faults.DistributedCheckpoint` that
        saves the partially truncated tensor plus the replicated resume
        state on entry and after every completed mode.  The run then
        survives rank failures by itself (``run_spmd(resilience=)`` is
        for message faults, and not needed): the survivors shrink,
        re-lay the grid and resume from the newest complete step
        (``rank_failures``); with ``ckpt_dir`` a new world restarts from
        the newest manifest.
    max_elements, workdir, checkpoint_dir:
        Out of core: ``max_elements`` bounds the elements of one chunk;
        scratch files live in a temporary directory (made under
        ``workdir`` if given) that is removed when the run ends;
        ``checkpoint_dir`` persists each completed mode (see
        :mod:`repro.core.checkpoint`), so that rerunning the identical
        call resumes after the last one, and is cleared on success.

    Returns
    -------
    SthosvdResult
    """
    tensor = work_input(
        tensor, precision, svd_options=svd_options, checkpoint=checkpoint,
        max_elements=max_elements, workdir=workdir,
        checkpoint_dir=checkpoint_dir)
    order = resolve_mode_order(mode_order, tensor.ndim)
    loop = open_loop(tensor, method=method, tol=tol, ranks=ranks,
                     progress=progress, svd_options=svd_options)
    kind = kind_of(tensor)
    if kind == "DistributedTensor":
        if checkpoint is None:
            if tensor.comm.rank != 0:
                loop.progress = None  # rank 0 reports for the world
            core = truncated_loop(loop, tensor, order)
        else:
            core = recovering(
                lambda work, meta: _checkpointed(
                    loop, work, order, progress, checkpoint, meta),
                tensor, checkpoint, order, loop.failures)
    elif kind == "OutOfCoreTensor":
        core = _streamed(loop, tensor, order, max_elements, workdir,
                         checkpoint_dir)
    else:
        core = truncated_loop(loop, tensor, order)
    return SthosvdResult._from_loop(loop, core, order)


def _checkpointed(loop: ModeLoop, work: DistributedTensor, order, progress,
                  checkpoint, meta) -> DistributedTensor:
    """One attempt of :func:`sthosvd` on a distributed tensor with a
    ``checkpoint`` (see :func:`~repro.core.modeloop.recovering`); returns
    the core.

    ``meta`` is the state to resume after (None: run from the input).
    The checkpoint saves on entry — on a fresh epoch that re-seeds every
    survivor's buddy, so a *second* failure still finds a complete step
    — and after every mode.
    """
    loop.progress = progress if work.comm.rank == 0 else None
    start = 0
    if meta is not None:
        # The original tensor's norm drives the error budget; the
        # recovered tensor is already truncated, so never recompute it.
        # A checkpoint taken before the first mode completed stored
        # None: its tensor still is the input, and the first solve
        # supplies the norm.
        start = int(meta["completed_steps"])
        loop.norm_sq = meta["norm_x_sq"]
        loop.factors = [None if f is None else np.asarray(f)
                        for f in meta["factors"]]
        loop.sigmas = {int(k): np.asarray(v)
                       for k, v in meta["sigmas"].items()}
        loop.recoveries = list(meta["numeric_recoveries"])

    def save_step(completed: int, current: DistributedTensor) -> None:
        checkpoint.save(current, completed, meta={
            "completed_steps": completed,
            "factors": list(loop.factors),
            "sigmas": dict(loop.sigmas),
            "norm_x_sq": loop.norm_sq,
            "numeric_recoveries": list(loop.recoveries),
        })

    save_step(start, work)
    return truncated_loop(loop, work, order, start=start,
                          after_mode=save_step)


def _streamed(loop: ModeLoop, ooc: OutOfCoreTensor, order, max_elements,
              workdir, checkpoint_dir) -> DenseTensor:
    """The out-of-core arm of :func:`sthosvd`; returns the core in memory.

    Each mode's output is a scratch file that the next mode reads and
    then deletes, so at most two exist at once.
    """
    import os
    import tempfile

    from ..data.outofcore import DEFAULT_CHUNK_ELEMENTS
    from .checkpoint import (
        _fingerprint, clear_checkpoint, load_checkpoint, save_checkpoint)

    loop.max_elements = (DEFAULT_CHUNK_ELEMENTS if max_elements is None
                         else max_elements)
    current, start, fingerprint = ooc, 0, None
    if checkpoint_dir is not None:
        fingerprint = _fingerprint(ooc.shape, ooc.dtype, loop.tol, loop.ranks,
                                   loop.method, order)
        resume = load_checkpoint(checkpoint_dir, fingerprint)
        if resume is not None:
            # A resumed run budgets from the very number the interrupted
            # one used.
            current, start = resume.current, resume.completed_steps
            loop.norm_sq = resume.norm_sq
            for mode, U in resume.factors.items():
                loop.factors[mode] = U
            loop.sigmas.update(resume.sigmas)
    scratch: list[str] = []

    def after_mode(step: int, current: OutOfCoreTensor) -> None:
        while scratch:  # the previous mode's output has been read
            os.unlink(scratch.pop())
        scratch.append(current.path)
        if checkpoint_dir is not None:
            done = {m: U for m, U in enumerate(loop.factors) if U is not None}
            save_checkpoint(checkpoint_dir, step=step, state={
                "factors": done, "sigmas": loop.sigmas,
                "norm_sq": loop.norm_sq,
            }, current=current, fingerprint=fingerprint)

    with tempfile.TemporaryDirectory(prefix="repro-ooc-", dir=workdir) as tmp:
        loop.workdir = tmp
        core = truncated_loop(loop, current, order, start=start,
                              after_mode=after_mode).to_dense()
    if checkpoint_dir is not None:
        clear_checkpoint(checkpoint_dir)
    return core
