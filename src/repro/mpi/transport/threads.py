"""Threaded transport: ranks as threads of the calling process.

The historical (and default) execution model of the simulated runtime.
Every rank is a ``threading.Thread`` sharing the caller's address
space, so delivery is a direct mailbox append, observers are written
in place, and zero-copy move semantics are literal — the
receiver gets the sender's ndarray object.  NumPy kernels release the
GIL, so ranks overlap on multicore hosts for the BLAS-bound portions;
pure-Python sections serialize (the gap the process backend closes).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ...faults.injector import (
    activate as faults_activate,
    deactivate as faults_deactivate,
)
from ...errors import RankKilledError
from ...obs._hook import bind as bind_observers, unbind as unbind_observers
from ..communicator import Communicator
from .base import Transport

__all__ = ["ThreadTransport", "run_rank_program"]

#: Communicator id of the world every rank starts from.
WORLD_COMM_ID = 0


def run_rank_program(context, comm, fn, args, kwargs, rank: int,
                     *, on_value, on_killed, on_error) -> None:
    """One rank's program run with the canonical error protocol.

    Shared by both transports so a rank behaves identically whether it
    is a thread or a forked process: an injected crash
    (:class:`~repro.errors.RankKilledError`) marks the rank failed but
    leaves the world running for ULFM-style recovery; any other
    exception (translated through the sanitizer's read-only-write
    attribution when one is attached) marks the rank failed *and*
    aborts the world.  The three callbacks let each transport route the
    outcome to its own bookkeeping (in-memory lists for threads, RPC
    messages for processes).
    """
    injector = context.faults
    bind_observers(rank, context.observers)
    if injector is not None:
        faults_activate(injector, rank)
    try:
        on_value(fn(comm, *args, **kwargs))
    except RankKilledError as exc:
        # An injected crash is a *simulated* failure: record the death
        # so partners observe RankFailedError, but leave the world
        # running — survivors get the chance to shrink and recover.
        on_killed(exc)
    except BaseException as exc:  # noqa: BLE001 - must abort the world
        sanitizer = context.sanitizer
        if sanitizer is not None:
            # A write into a frozen (moved) buffer surfaces as NumPy's
            # read-only ValueError; re-attribute it to the zero-copy
            # send that relinquished the buffer.
            translated = sanitizer.explain_readonly_write(exc, rank)
            if translated is not None:
                exc = translated
        on_error(exc)
    finally:
        if injector is not None:
            faults_deactivate()
        unbind_observers()


class ThreadTransport(Transport):
    """Ranks as threads; envelopes append straight into shared mailboxes."""

    name = "threads"
    shared_world = True

    def deliver(self, context, comm_id: int, dest_world: int,
                source: int, tag: int, envelope) -> None:
        """Append the envelope to the destination's in-process mailbox."""
        context.mailbox(comm_id, dest_world).put(source, tag, envelope)

    def execute(
        self,
        context,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> tuple[list, list]:
        """Spawn one thread per rank and join them all."""
        nprocs = context.world_size
        members = list(range(nprocs))
        values: list = [None] * nprocs
        errors: list = [None] * nprocs

        def worker(rank: int) -> None:
            comm = Communicator(context, WORLD_COMM_ID, members, rank)

            def on_value(value: Any) -> None:
                values[rank] = value
                context.mark_finalized(rank)

            def on_killed(exc: BaseException) -> None:
                errors[rank] = exc
                context.mark_failed(rank)

            def on_error(exc: BaseException) -> None:
                errors[rank] = exc
                context.mark_failed(rank)
                context.abort(
                    f"rank {rank} raised {type(exc).__name__}: {exc}"
                )

            run_rank_program(
                context, comm, fn, args, kwargs, rank,
                on_value=on_value, on_killed=on_killed, on_error=on_error,
            )

        if nprocs == 1:
            # Fast path: no threads for the serial case.
            worker(0)
            return values, errors

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return values, errors
