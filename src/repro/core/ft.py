"""Fault-tolerant driver loop: run, and on rank failure shrink + resume.

The parallel drivers themselves are fail-stop: a dead partner surfaces
as :class:`~repro.errors.RankFailedError` out of whatever collective
touched it.  This module wraps them in the ULFM-style recovery loop:

1. every survivor catches the failure, **revokes** the current
   communicator epoch (unblocking peers stuck in stale collectives),
   and joins the **shrink** rendezvous, producing a dense-ranked
   communicator of the survivors;
2. the newest complete :class:`~repro.faults.DistributedCheckpoint`
   step is reassembled on the shrunk world's root — the dead rank's
   block survives in its buddy's store;
3. the tensor is redistributed over whatever grid the survivors form,
   and the driver resumes from the recorded step with the replicated
   factors restored.

Call these from inside an SPMD program (they are collective over
``comm``); the input tensor lives on the root rank, exactly like
:func:`repro.dist.redistribute.distribute_from_root`:

>>> def program(comm):
...     res = sthosvd_fault_tolerant(comm, X if comm.rank == 0 else None,
...                                  tol=1e-5, method="qr")
...     return res.result.estimated_rel_error()
>>> run_spmd(program, 4, faults=plan, resilience=True)

Because recovery re-plans the processor grid for the shrunk world and
resumes from a replicated checkpoint, the surviving ranks complete the
decomposition with no participation from the dead rank — the injected
crash costs one repeated mode (or sweep) plus the redistribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import RankFailedError
from ..dist.dtensor import GridComms
from ..dist.grid import ProcessorGrid
from ..dist.redistribute import distribute_from_root
from ..faults.checkpoint import DistributedCheckpoint
from ..obs.tracer import trace_span
from .hooi_parallel import ParallelHooiResult, hooi_parallel
from .sthosvd_parallel import ParallelSthosvdResult, sthosvd_parallel

__all__ = [
    "FaultTolerantResult",
    "sthosvd_fault_tolerant",
    "hooi_fault_tolerant",
]


@dataclass
class FaultTolerantResult:
    """A driver result plus the recovery history that produced it.

    ``comm`` is the communicator the run *finished* on — the original
    world when nothing failed, else the latest shrunk communicator
    (``result.core`` is distributed over it).  ``events`` records one
    entry per recovery: ``("rank_failure", {...})`` with the survivor
    count and the step resumed from.
    """

    result: Any
    comm: Any
    recoveries: int = 0
    events: list = field(default_factory=list)


def _recover_loop(comm, full, run, *, max_recoveries: int, ckpt,
                  recover: str = "shrink"):
    """Shared run/catch/recover/resume loop for both drivers.

    ``run(comm, full, resume)`` executes one attempt over a freshly
    built grid and returns the driver result; ``full`` is the (root
    only) tensor the attempt distributes.

    ``recover`` picks what the survivors rebuild after revoking the
    failed epoch: ``"shrink"`` produces a dense-ranked communicator of
    the survivors (the world gets smaller), ``"replace"`` asks the
    transport to respawn the dead rank and rebuilds the full-size world
    (the grid keeps its original shape).  A respawned replacement
    replays the whole program from the top: its first operation on the
    revoked world raises :class:`~repro.errors.CommRevokedError`, which
    lands it in this same handler to join the replace rendezvous.
    """
    if recover not in ("shrink", "replace"):
        raise ValueError(
            f"recover must be 'shrink' or 'replace', got {recover!r}")
    resume = None
    recoveries = 0
    events: list = []
    original: RankFailedError | None = None
    if full is not None:
        # Pin the *input* fingerprint before any resume swaps ``full``
        # for a recovered (already-truncated) tensor; the root's
        # manifest writes carry it so restart-from-disk can refuse a
        # checkpoint belonging to a different run.
        ckpt.input_info = {
            "shape": tuple(int(s) for s in full.shape),
            "dtype": np.dtype(full.dtype).name,
        }
    if ckpt.ckpt_dir is not None:
        # Restart-from-disk: a brand-new world (e.g. relaunched after a
        # total crash) picks up from the newest committed manifest; a
        # fresh directory resumes nothing and runs from scratch.
        try:
            with trace_span("ft.resume_disk"):
                disk = ckpt.resume_from_disk(comm, full)
        except RankFailedError:
            # A replacement replaying the program (or a survivor racing
            # a concurrent failure) trips the revoked epoch here; the
            # loop below recovers from the in-memory tier instead.
            disk = None
        if disk is not None:
            step, resume, recovered = disk
            if comm.rank == 0:
                full = recovered
            events.append((
                "disk_resume",
                {"resumed_step": step, "ckpt_dir": ckpt.ckpt_dir},
            ))
    pending: RankFailedError | None = None
    while True:
        try:
            if pending is not None:
                with trace_span("ft.recover", attempt=recoveries,
                                mode=recover):
                    # Revoke before rebuilding: peers still blocked
                    # inside the dead epoch's collectives wake with
                    # CommRevokedError (a RankFailedError) and land in
                    # this same handler.  The whole recovery sequence
                    # runs inside the try: a *second* failure mid-
                    # recovery (e.g. the replacement dying during the
                    # checkpoint reassembly) loops back into another
                    # cycle instead of escaping.
                    comm.revoke()
                    if recover == "replace":
                        comm = comm.replace()
                    else:
                        comm = comm.shrink()
                    step, meta, recovered = ckpt.recover(comm, root=0)
                    # Re-arm the buddy invariant: entries whose second
                    # copy died with the failed rank get a fresh
                    # replica, so the *next* failure cannot take the
                    # last surviving copy.
                    ckpt.rebalance(comm)
                resume = meta
                full = recovered if comm.rank == 0 else None
                events.append((
                    "rank_failure",
                    {
                        "recovery": recoveries,
                        "mode": recover,
                        "survivors": comm.size,
                        "resumed_step": step,
                        "cause": f"{type(pending).__name__}: {pending}",
                    },
                ))
                pending = None
            result = run(comm, full, resume)
            return FaultTolerantResult(
                result=result, comm=comm, recoveries=recoveries, events=events,
            )
        except RankFailedError as exc:
            if original is None:
                original = exc
            recoveries += 1
            if recoveries > max_recoveries:
                # Surface the failure that started the cascade, carrying
                # the recovery history — not whatever secondary error
                # the last doomed retry happened to die of.
                original.recovery_history = tuple(events)
                if exc is original:
                    raise
                raise original from exc
            pending = exc


def _bcast_ndim(comm, full) -> int:
    return int(comm.bcast(full.ndim if comm.rank == 0 else None, root=0))


def sthosvd_fault_tolerant(
    comm,
    full,
    *,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
    method: str = "qr",
    mode_order="forward",
    svd_strategy: str = "replicated",
    max_recoveries: int = 2,
    checkpoint_name: str = "sthosvd",
    checkpoint_keep: int = 2,
    recover: str = "shrink",
    ckpt_dir: str | None = None,
    progress: Callable[[dict], None] | None = None,
) -> FaultTolerantResult:
    """Fault-tolerant parallel ST-HOSVD (collective over ``comm``).

    ``full`` is the input tensor on ``comm``'s rank 0 (None elsewhere).
    Decomposition arguments match :func:`~repro.core.sthosvd_parallel.
    sthosvd_parallel`.  Up to ``max_recoveries`` rank failures are
    survived; one more re-raises the *original* :class:`~repro.errors.
    RankFailedError` with ``recovery_history`` attached.  The returned
    ``result`` is a :class:`~repro.core.sthosvd_parallel.
    ParallelSthosvdResult` whose core is distributed over
    ``FaultTolerantResult.comm``.  Every attempt lays its grid with
    :meth:`ProcessorGrid.for_size(comm.size, ndim, mode_order)
    <repro.dist.grid.ProcessorGrid.for_size>`, so the mode the run
    processes first stays undistributed after a shrink as well.

    ``recover="replace"`` respawns dead ranks instead of shrinking (the
    grid keeps its shape; needs a transport with respawn support —
    every ``run_spmd`` backend qualifies).  ``ckpt_dir`` adds the
    durable tier: checkpoints also land on disk, and a brand-new
    invocation pointed at the same directory resumes from the newest
    committed manifest.
    """
    ckpt = DistributedCheckpoint(
        checkpoint_name, keep=checkpoint_keep, ckpt_dir=ckpt_dir)

    def run(comm, full, resume) -> ParallelSthosvdResult:
        # ndim is derived inside the attempt: a replacement's first
        # collective must happen where the recovery loop can catch the
        # revoked-epoch error and route it into the replace rendezvous.
        grid = ProcessorGrid.for_size(
            comm.size, _bcast_ndim(comm, full), mode_order)
        comms = GridComms(comm, grid)
        dt = distribute_from_root(comms, full, root=0)
        return sthosvd_parallel(
            dt, tol=tol, ranks=ranks, method=method, mode_order=mode_order,
            svd_strategy=svd_strategy, progress=progress, checkpoint=ckpt,
            resume=resume,
        )

    return _recover_loop(comm, full, run, max_recoveries=max_recoveries,
                         ckpt=ckpt, recover=recover)


def hooi_fault_tolerant(
    comm,
    full,
    ranks: Sequence[int],
    *,
    method: str = "qr",
    init: str = "sthosvd",
    max_iters: int = 25,
    fit_tol: float = 1e-9,
    svd_strategy: str = "replicated",
    max_recoveries: int = 2,
    checkpoint_name: str = "hooi",
    checkpoint_keep: int = 2,
    recover: str = "shrink",
    ckpt_dir: str | None = None,
    progress: Callable[[dict], None] | None = None,
) -> FaultTolerantResult:
    """Fault-tolerant distributed HOOI (collective over ``comm``).

    ``full`` is the input tensor on rank 0.  Checkpoints are taken per
    completed sweep, so a failure costs at most one repeated sweep plus
    the recovery redistribution.  ``recover`` and ``ckpt_dir`` behave
    exactly as in :func:`sthosvd_fault_tolerant`.
    """
    ckpt = DistributedCheckpoint(
        checkpoint_name, keep=checkpoint_keep, ckpt_dir=ckpt_dir)

    def run(comm, full, resume) -> ParallelHooiResult:
        grid = ProcessorGrid.for_size(comm.size, _bcast_ndim(comm, full))
        comms = GridComms(comm, grid)
        dt = distribute_from_root(comms, full, root=0)
        return hooi_parallel(
            dt, ranks, method=method, init=init, max_iters=max_iters,
            fit_tol=fit_tol, svd_strategy=svd_strategy, progress=progress,
            checkpoint=ckpt, resume=resume,
        )

    return _recover_loop(comm, full, run, max_recoveries=max_recoveries,
                         ckpt=ckpt, recover=recover)
