"""Out-of-core ST-HOSVD: compress raw files larger than memory.

Runs the paper's Alg. 1 against an :class:`~repro.data.outofcore.
OutOfCoreTensor`: per mode, the Gram matrix (or the flat-tree LQ) is
accumulated from streamed unfolding chunks — the identical mathematics
of the in-memory kernels, applied to bounded-size chunks — then the TTM
truncation streams the shrunken tensor to a scratch file that becomes
the next mode's input.  Peak memory is O(chunk + I_n^2), independent of
the tensor size.

Intermediate scratch files live in a working directory (a temporary one
by default) and are deleted as soon as the next mode's output replaces
them; the final core is returned in memory (it is small by construction
— that is the point of the compression).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..instrument import FlopCounter, PhaseTimer, PHASE_GRAM, PHASE_LQ, PHASE_SVD, PHASE_EVD, PHASE_TTM
from ..data.outofcore import OutOfCoreTensor, DEFAULT_CHUNK_ELEMENTS
from ..linalg.flops import gram_flops
from ..linalg.gram import gram_matrix
from ..linalg.qr import flat_tree_lq
from ..linalg.svd import left_svd_of_triangle, svd_from_gram
from ..tensor.ttm import ttm_flops
from .ordering import resolve_mode_order
from .sthosvd import SthosvdResult
from .truncation import choose_rank, error_budget_per_mode
from .tucker import TuckerTensor

__all__ = ["ooc_tensor_gram", "ooc_tensor_lq", "sthosvd_out_of_core"]


def ooc_tensor_gram(
    ooc: OutOfCoreTensor,
    n: int,
    *,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Gram matrix of the mode-``n`` unfolding from streamed chunks."""
    rows = ooc.shape[n]
    G = np.zeros((rows, rows), dtype=ooc.dtype)
    for chunk in ooc.iter_unfolding_chunks(n, max_elements):
        G += chunk @ chunk.T
    G = (G + G.T) * G.dtype.type(0.5)
    if counter is not None:
        counter.add(gram_flops(rows, ooc.size // rows), phase=PHASE_GRAM, mode=n)
    return G


def ooc_tensor_lq(
    ooc: OutOfCoreTensor,
    n: int,
    *,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Flat-tree LQ of the mode-``n`` unfolding from streamed chunks.

    Alg. 2 with disk chunks as blocks: the same
    :func:`~repro.linalg.qr.flat_tree_lq` loop the in-memory
    ``tensor_lq`` runs, fed from the file.
    """
    runs = (chunk[None] for chunk in ooc.iter_unfolding_chunks(n, max_elements))
    return flat_tree_lq("gelq", runs, ooc.shape[n], ooc.dtype,
                        counter=counter, mode=n)


def sthosvd_out_of_core(
    path: str,
    shape: Sequence[int],
    *,
    dtype=np.float64,
    precision=None,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    mode_order="forward",
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    workdir: str | None = None,
    checkpoint_dir: str | None = None,
    progress=None,
) -> SthosvdResult:
    """ST-HOSVD of a raw natural-order file, never loading it whole.

    Arguments mirror :func:`repro.core.sthosvd.sthosvd`; ``path`` points
    at a file in the :mod:`repro.data.io` raw format; ``dtype`` is the
    file's storage precision and ``precision`` (optional) the working
    precision — pass ``precision="single"`` to run the paper's
    single-precision pipeline on a double-precision dump.
    ``max_elements`` bounds the per-chunk memory; ``workdir`` hosts the
    scratch files (defaults to a temporary directory, removed
    afterwards).

    ``checkpoint_dir`` enables resumable execution: completed modes are
    persisted there (see :mod:`repro.core.checkpoint`), and re-invoking
    with the identical configuration resumes after the last completed
    mode.  The checkpoint is cleared on successful completion.

    ``progress``, if given, is called after each completed mode with a
    dict ``{step, total_steps, mode, rank, seconds}`` — multi-terabyte
    compressions take hours per mode and deserve a heartbeat.
    """
    if method not in ("qr", "gram"):
        raise ConfigurationError(
            f"out-of-core driver supports methods ('qr', 'gram'), got {method!r}"
        )
    if tol is not None and ranks is not None:
        raise ConfigurationError("pass either tol or ranks, not both")
    ooc = OutOfCoreTensor(path, shape, dtype, work_dtype=precision)
    ndim = ooc.ndim
    order = resolve_mode_order(mode_order, ndim)
    if ranks is not None:
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != ndim:
            raise ConfigurationError(f"need {ndim} ranks, got {len(ranks)}")
        for n, (r, i) in enumerate(zip(ranks, ooc.shape)):
            if not 1 <= r <= i:
                raise ConfigurationError(f"rank {r} invalid for mode {n} of size {i}")

    counter = FlopCounter()
    timer = PhaseTimer()
    norm_sq = ooc.norm_squared()
    norm_x = float(np.sqrt(norm_sq))
    budget = error_budget_per_mode(norm_sq, tol, ndim) if tol is not None else None

    fingerprint = None
    resume = None
    if checkpoint_dir is not None:
        from .checkpoint import load_checkpoint, _fingerprint

        fingerprint = _fingerprint(ooc.shape, ooc.dtype, tol, ranks, method, order)
        resume = load_checkpoint(checkpoint_dir, fingerprint)

    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-ooc-")
    try:
        current = ooc
        scratch: list[str] = []
        factors: list = [None] * ndim
        sigmas: dict[int, np.ndarray] = {}
        skip_steps = 0
        if resume is not None:
            skip_steps = resume.completed_steps
            for mode, U in resume.factors.items():
                factors[mode] = U
            sigmas.update(resume.sigmas)
            current = resume.current
            norm_sq = resume.norm_sq
            norm_x = float(np.sqrt(norm_sq))
            budget = (
                error_budget_per_mode(norm_sq, tol, ndim) if tol is not None else None
            )
        for step, n in enumerate(order):
            if step < skip_steps:
                continue
            if method == "qr":
                with timer.phase(PHASE_LQ, n):
                    L = ooc_tensor_lq(current, n, max_elements=max_elements,
                                      counter=counter)
                with timer.phase(PHASE_SVD, n):
                    U, sigma = left_svd_of_triangle(L, counter=counter, mode=n)
            else:
                with timer.phase(PHASE_GRAM, n):
                    G = ooc_tensor_gram(current, n, max_elements=max_elements,
                                        counter=counter)
                with timer.phase(PHASE_EVD, n):
                    U, sigma = svd_from_gram(G, counter=counter, mode=n)
            sigmas[n] = sigma
            if budget is not None:
                r = choose_rank(sigma, budget)
            elif ranks is not None:
                r = ranks[n]
            else:
                r = min(current.shape[n], U.shape[1])
            U_n = np.ascontiguousarray(U[:, :r])
            factors[n] = U_n
            out_path = os.path.join(workdir, f"step{step}.bin")
            with timer.phase(PHASE_TTM, n):
                counter.add(ttm_flops(current.shape, n, r), phase=PHASE_TTM, mode=n)
                current = current.ttm_truncate_to_file(
                    U_n, n, out_path, max_elements=max_elements
                )
            # Previous scratch file is no longer needed.
            while scratch:
                os.unlink(scratch.pop())
            scratch.append(out_path)
            if progress is not None:
                progress({
                    "step": step + 1,
                    "total_steps": ndim,
                    "mode": n,
                    "rank": r,
                    "seconds": timer.total,
                })
            if checkpoint_dir is not None:
                from .checkpoint import save_checkpoint

                save_checkpoint(
                    checkpoint_dir,
                    step=step + 1,
                    factors={m: U for m, U in enumerate(factors) if U is not None},
                    sigmas=sigmas,
                    ranks_chosen={m: U.shape[1] for m, U in enumerate(factors)
                                  if U is not None},
                    current=current,
                    norm_sq=norm_x * norm_x,
                    fingerprint=fingerprint,
                )

        core = current.to_dense()
        if checkpoint_dir is not None:
            from .checkpoint import clear_checkpoint

            clear_checkpoint(checkpoint_dir)
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    return SthosvdResult(
        tucker=TuckerTensor(core=core, factors=tuple(factors)),
        sigmas=sigmas,
        mode_order=order,
        method=method,
        precision=core.precision,
        norm_x=norm_x,
        flops=counter,
        timer=timer,
    )
