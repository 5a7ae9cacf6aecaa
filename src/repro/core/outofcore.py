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

from ..instrument import FlopCounter
from ..data.outofcore import OutOfCoreTensor, DEFAULT_CHUNK_ELEMENTS
from ..linalg.gram import streamed_gram
from ..linalg.qr import flat_tree_lq
from ..util.validation import resolve_mode_order
from .checkpoint import _fingerprint, clear_checkpoint, load_checkpoint, save_checkpoint
from .modeloop import open_loop, truncated_loop
from .sthosvd import SthosvdResult

__all__ = ["ooc_tensor_gram", "ooc_tensor_lq", "sthosvd_out_of_core"]


def ooc_tensor_gram(
    ooc: OutOfCoreTensor,
    n: int,
    *,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Gram matrix of the mode-``n`` unfolding from streamed chunks: the
    :func:`~repro.linalg.gram.streamed_gram` loop of the in-memory
    ``tensor_gram``, fed from the file."""
    runs = (chunk[None] for chunk in ooc.iter_unfolding_chunks(n, max_elements))
    return streamed_gram(runs, ooc.shape[n], ooc.dtype, counter=counter, mode=n)


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
    dict ``{step, total_steps, mode, rank, ranks, seconds, elapsed}``
    (``seconds`` for this mode, ``elapsed`` since the run started) —
    multi-terabyte compressions take hours per mode and deserve a
    heartbeat.
    """
    ooc = OutOfCoreTensor(path, shape, dtype, work_dtype=precision)
    order = resolve_mode_order(mode_order, ooc.ndim)
    resume = fingerprint = None
    if checkpoint_dir is not None:
        fingerprint = _fingerprint(ooc.shape, ooc.dtype, tol, ranks, method, order)
        resume = load_checkpoint(checkpoint_dir, fingerprint)
    # A resumed run budgets from the very number the interrupted one used.
    loop = open_loop(
        ooc, method=method, tol=tol, ranks=ranks, max_elements=max_elements,
        norm_sq=None if resume is None else resume.norm_sq, progress=progress,
    )
    current, start = ooc, 0
    if resume is not None:
        current, start = resume.current, resume.completed_steps
        for mode, U in resume.factors.items():
            loop.factors[mode] = U
        loop.sigmas.update(resume.sigmas)

    scratch: list[str] = []

    def after_mode(step: int, current: OutOfCoreTensor) -> None:
        # The previous scratch file is no longer needed.
        while scratch:
            os.unlink(scratch.pop())
        scratch.append(current.path)
        if checkpoint_dir is not None:
            done = {m: U for m, U in enumerate(loop.factors) if U is not None}
            save_checkpoint(checkpoint_dir, step=step, state={
                "factors": done, "sigmas": loop.sigmas,
                "norm_sq": loop.norm_sq,
            }, current=current, fingerprint=fingerprint)

    own_workdir = workdir is None
    loop.workdir = tempfile.mkdtemp(prefix="repro-ooc-") if own_workdir else workdir
    try:
        current = truncated_loop(loop, current, order, start=start,
                                 after_mode=after_mode)
        core = current.to_dense()
        if checkpoint_dir is not None:
            clear_checkpoint(checkpoint_dir)
    finally:
        if own_workdir:
            shutil.rmtree(loop.workdir, ignore_errors=True)
    return SthosvdResult._from_loop(loop, core, order)
