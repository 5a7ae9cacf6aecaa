"""SPMD launcher: run a function on P simulated ranks.

:func:`run_spmd` is the `mpiexec` of the simulated runtime: it spawns
one thread per rank, hands each a world :class:`Communicator`, and
collects return values.  NumPy kernels release the GIL, so ranks
genuinely overlap on multicore hosts; correctness never depends on it.

If any rank raises, the world is aborted — every blocked receive wakes
with :class:`~repro.errors.CommunicatorError` — and the original
exception is re-raised in the caller with the failing rank identified.

With ``sanitize=True`` (or an explicit
:class:`~repro.sanitize.Sanitizer`) the run is supervised by the SPMD
sanitizer: collective calls are cross-checked between ranks, blocked
receives feed a deadlock-detecting wait-for graph, zero-copy move
violations surface as :class:`~repro.errors.UseAfterMoveError` with the
original send site, and undelivered messages are reported at finalize.
See :mod:`repro.sanitize` and ``docs/sanitizer.md``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Any, Callable

from ..errors import (
    CommunicatorError,
    RankFailedError,
    RankKilledError,
    SanitizerError,
    WorldAbortedError,
)
from ..faults.injector import FaultInjector
from ..faults.plan import Resilience
from .context import SpmdContext
from .costmodel import CostModel
from .transport import make_transport
from .transport.threads import WORLD_COMM_ID
from .tuning import CollectiveTuning

__all__ = ["run_spmd", "SpmdResult", "WORLD_COMM_ID"]


@dataclass
class SpmdResult:
    """Results of an SPMD run: per-rank return values and logical clocks.

    Under fault injection, ranks killed by an injected crash report
    ``None`` in ``values`` and appear in ``failed_ranks``; ``faults``
    is the run's :class:`~repro.faults.FaultInjector` carrying the
    fired-fault trace for replay verification.
    """

    values: list
    clocks: list  # RankClock per rank, or None when no cost model
    sanitizer: Any = None  # the run's Sanitizer when sanitize= was given
    faults: Any = None  # the run's FaultInjector when faults= was given
    failed_ranks: list = None  # world ranks dead at exit (injected crashes)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int):
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def slowest_time(self) -> float:
        """Max logical finish time over ranks (paper reports the slowest)."""
        if not self.clocks or self.clocks[0] is None:
            raise CommunicatorError("no cost model was attached to this run")
        return max(c.now for c in self.clocks)

    def slowest_rank_breakdown(self) -> dict[str, float]:
        """Per-phase breakdown of the rank with the largest finish time."""
        if not self.clocks or self.clocks[0] is None:
            raise CommunicatorError("no cost model was attached to this run")
        slowest = max(self.clocks, key=lambda c: c.now)
        return slowest.breakdown()


def _write_postmortem(context, recorder, err, errors) -> None:
    """Assemble (and persist, when configured) the crash postmortem.

    Runs just before the launcher re-raises the root cause of a dead
    world.  Failures here must never mask that root cause, so problems
    are reported to stderr and swallowed.
    """
    if recorder is None:
        return
    try:
        from ..obs.postmortem import build_postmortem, write_postmortem

        bundle = build_postmortem(context, error=err, errors=errors,
                                  recorder=recorder)
        recorder.last_postmortem = bundle
        if recorder.postmortem_dir is not None:
            recorder.last_postmortem_path = write_postmortem(
                bundle, recorder.postmortem_dir
            )
    except Exception as exc:  # pragma: no cover - defensive
        import sys

        print(f"repro: postmortem assembly failed: {exc!r}", file=sys.stderr)


def run_spmd(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    cost_model: CostModel | None = None,
    recv_timeout: float = 120.0,
    comm_trace=None,
    tracer=None,
    sanitize=False,
    faults=None,
    resilience=None,
    backend=None,
    recorder=None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    Collectives run one schedule each; only ``allreduce`` chooses, by
    the fixed :class:`~repro.mpi.tuning.CollectiveTuning` crossover,
    which the world records in ``run_config["tuning"]``.

    Parameters
    ----------
    fn:
        The SPMD program.  Receives the world communicator as its first
        argument; its return value is collected per rank.
    nprocs:
        Number of ranks.
    backend:
        Rank transport: ``"threads"`` (default — ranks as threads of
        this process, shared address space), ``"procs"`` (ranks as
        forked worker processes exchanging ndarray payloads over
        direct worker-to-worker ``AF_UNIX`` links — true multi-core
        execution for GIL-bound code; requires ``fn``, its arguments,
        and its return values to be fork-inheritable /
        picklable-modulo-ndarrays), or ``"sockets"`` (the procs
        execution model over framed TCP connections hardened with
        connect retries, heartbeats, and liveness deadlines).  A prebuilt
        :class:`~repro.mpi.transport.Transport` instance is accepted
        for transports with constructor knobs, e.g.
        ``backend=SocketTransport(liveness_timeout=2.0)``.  ``None``
        reads ``REPRO_SPMD_BACKEND``, falling back to ``"threads"``.
        Results, collectives, fault injection, tracing, and the
        sanitizer's collective/deadlock/leak checks behave identically
        on every backend; see ``docs/mpi-runtime.md`` (Transports).
    cost_model:
        Optional alpha-beta-gamma parameters; when given, every rank's
        communicator carries a logical clock and ``SpmdResult.clocks``
        holds them.
    recv_timeout:
        Seconds a blocked receive waits before declaring deadlock.
    comm_trace:
        Optional :class:`~repro.mpi.tracing.CommTrace` recording every
        rank's sent messages and bytes.
    tracer:
        Optional :class:`~repro.obs.Tracer` activated on every rank
        thread for the duration of the run: communicator operations,
        distributed kernels, and drivers record per-rank spans into it.
    sanitize:
        ``True`` (or a configured :class:`~repro.sanitize.Sanitizer`)
        enables the SPMD sanitizer: collective-matching verification,
        wait-for-graph deadlock detection, zero-copy move enforcement,
        and a message-leak report at finalize.  ``False`` (default)
        costs a single ``is None`` check per communicator operation.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a prebuilt
        :class:`~repro.faults.FaultInjector`) injecting deterministic,
        seeded faults: rank crashes, message drop/delay/duplicate/
        corruption, kernel NaN/Inf.  Injected crashes do *not* abort
        the world — survivors observe :class:`~repro.errors.
        RankFailedError` and may ``revoke()``/``shrink()`` to recover;
        the victims' slots in ``values`` stay None and their world
        ranks land in ``SpmdResult.failed_ranks``.
    resilience:
        ``True`` (defaults) or a :class:`~repro.faults.Resilience`
        enabling message-level tolerance: per-message sequence numbers,
        payload checksums, and sender retry with exponential backoff —
        the machinery that survives what ``faults=`` injects.
    recorder:
        Optional :class:`~repro.obs.FlightRecorder` — an always-on,
        bounded per-rank ring buffer of structured runtime events
        (p2p/collective ops, kernel entry/exit, faults, checkpoint
        saves).  When the run dies the launcher assembles a postmortem
        bundle (``recorder.last_postmortem``, and a JSON file when
        ``postmortem_dir`` is set) before re-raising the root cause.
        On ``"procs"`` and ``"sockets"`` each worker streams its events
        to this recorder with its liveness heartbeat (every
        ``heartbeat_interval`` of the transport), so the recorder shows
        a running world's progress and survives a worker's death.
        See ``docs/observability.md`` (Flight recorder & postmortems).

    Returns
    -------
    SpmdResult
        ``values[r]`` is rank r's return value; ``sanitizer`` is the
        run's :class:`~repro.sanitize.Sanitizer` (with its collected
        ``findings``) when sanitizing was requested.
    """
    if nprocs <= 0:
        raise CommunicatorError("nprocs must be positive")
    sanitizer = None
    if sanitize:
        if sanitize is True:
            from ..sanitize import Sanitizer

            sanitizer = Sanitizer()
        else:
            sanitizer = sanitize
    injector = None
    if faults is not None:
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
    res_cfg = None
    if resilience:
        if resilience is True:
            res_cfg = Resilience()
        elif isinstance(resilience, Resilience):
            res_cfg = resilience
        else:
            raise CommunicatorError(
                f"resilience= expects True or a Resilience, got {resilience!r}"
            )
    transport = make_transport(backend)
    context = SpmdContext(
        nprocs, cost_model=cost_model, recv_timeout=recv_timeout,
        comm_trace=comm_trace, tracer=tracer,
        sanitizer=sanitizer, faults=injector, resilience=res_cfg,
        transport=transport, recorder=recorder,
    )
    # "With which configuration?" — resolved once, carried by every
    # artifact (chrome_trace metadata, postmortems).
    context.run_config = {
        "backend": getattr(transport, "name", None),
        "nprocs": nprocs,
        "recv_timeout": recv_timeout,
        "tuning": asdict(CollectiveTuning()),
        "enabled": {
            "tracer": "tracer" in context.observers,
            "recorder": recorder is not None,
            "comm_trace": comm_trace is not None,
            "sanitize": sanitizer is not None,
            "faults": injector is not None,
            "resilience": res_cfg is not None,
            "cost_model": cost_model is not None,
        },
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
    }
    if tracer is not None:
        tracer.run_config = context.run_config
    values, clocks, errors = transport.execute(context, fn, args, kwargs)

    # Sanitizer findings are root causes; CommunicatorError is usually a
    # secondary symptom (a rank unblocked by the world abort) — re-raise
    # in that priority order.  Injected crashes (RankKilledError) are
    # expected outcomes of a fault plan, not program errors: they are
    # reported through failed_ranks, never re-raised.
    def reportable(err) -> bool:
        return err is not None and not (
            injector is not None and isinstance(err, RankKilledError)
        )

    # Root-cause tiers, most causal first.  A plain CommunicatorError
    # (a timeout, an exhausted retry budget) outranks a RankFailedError
    # — the observer of someone else's death — which in turn outranks
    # WorldAbortedError, by construction fallout of another rank's
    # failure.  Without the tiers, which rank's error surfaces would
    # depend on the race between the first failure and its observers.
    def tier(err) -> int:
        if isinstance(err, SanitizerError):
            return 0
        if not isinstance(err, CommunicatorError):
            return 1
        if isinstance(err, WorldAbortedError):
            return 4
        if isinstance(err, RankFailedError):
            return 3
        return 2

    for level in range(5):
        for rank, err in enumerate(errors):
            if reportable(err) and tier(err) == level:
                _write_postmortem(context, recorder, err, errors)
                raise err
    if sanitizer is not None:
        sanitizer.finalize_world(context)
    return SpmdResult(
        values=values, clocks=clocks, sanitizer=sanitizer, faults=injector,
        failed_ranks=context.failed_ranks(),
    )
