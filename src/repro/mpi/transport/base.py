"""Transport interface: how simulated ranks run and exchange envelopes.

The communicator layer is transport-agnostic: it builds
:class:`~repro.mpi.context.Envelope` objects and hands them to
``context.deliver(...)``; blocking receives go through the context's
mailbox objects.  A :class:`Transport` decides what sits behind those
two seams:

* :class:`~repro.mpi.transport.threads.ThreadTransport` — ranks are
  threads of the calling process; ``deliver`` is a direct in-memory
  mailbox append.  Shared address space, zero serialization.
* :class:`~repro.mpi.transport.sockets.SocketTransport` — ranks are
  worker processes that own their mailboxes and exchange payloads over
  direct worker-to-worker framed TCP links (ndarray data is never
  pickled); the master keeps the control plane only (lifecycle,
  rendezvous tables, sanitizer, liveness).  Hardened with
  retry/heartbeat/liveness against real network failure.
* :class:`~repro.mpi.transport.procs.ProcessTransport` — the same
  world on one host: forked workers joined by ``AF_UNIX`` links.

A transport also owns the rank *lifecycle*: :meth:`Transport.execute`
spawns the ranks, runs the SPMD program on each, funnels per-rank
return values / errors back to the launcher, and tears the
world down (including after failures), so ``run_spmd`` itself stays
backend-neutral.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from ...errors import CommunicatorError

__all__ = [
    "Transport",
    "available_backends",
    "make_transport",
    "resolve_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when ``run_spmd(backend=None)``.
BACKEND_ENV_VAR = "REPRO_SPMD_BACKEND"

_BACKENDS = ("threads", "procs", "sockets")


class Transport:
    """How ranks of one SPMD world execute and exchange envelopes.

    Subclasses implement the two seams the runtime routes through —
    delivery (:meth:`deliver`) and lifecycle (:meth:`execute`) — plus
    the :attr:`shared_world` capability flag that tells the launcher
    whether caller-provided observability objects (tracer, comm trace,
    fault injector) are mutated in place by the ranks or must be merged
    back from per-rank shards at finalize.
    """

    #: Short backend name ("threads", "procs") used in CLI flags,
    #: bench reports, and error messages.
    name: str = "abstract"

    #: True when ranks share the caller's address space: the caller's
    #: tracer/comm-trace/injector objects are written directly and the
    #: context the caller built is the one every rank sees.
    shared_world: bool = True

    # -- delivery seam --------------------------------------------------
    def deliver(self, context, comm_id: int, dest_world: int,
                source: int, tag: int, envelope):
        """Hand one envelope off; returns the error that lost it, or None.

        Returns once the envelope is staged out of the sender's hands
        (buffered-send semantics).  ``source`` is the sender's rank
        *within* the communicator, ``dest_world`` the receiver's world
        rank — the mailbox key the whole runtime addresses messages by.
        A lost envelope is not raised here: ``send`` goes on (the
        lifecycle report names the loss), ``isend`` hands the error to
        its request.
        """
        raise NotImplementedError

    # -- lifecycle seam -------------------------------------------------
    def execute(
        self,
        context,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> tuple[list, list]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank of ``context``.

        Returns ``(values, errors)``, each indexed by world
        rank; ``errors[r]`` is the exception rank ``r`` died with (or
        None).  The transport must have marked failed ranks in the
        context and aborted the world for non-crash errors before
        returning, exactly like the historical in-launcher thread loop.
        """
        raise NotImplementedError


def available_backends() -> tuple[str, ...]:
    """Names accepted by ``run_spmd(backend=...)``."""
    return _BACKENDS


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend or fall back to env var / default."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "threads"
    backend = str(backend).lower()
    if backend not in _BACKENDS:
        raise CommunicatorError(
            f"unknown SPMD backend {backend!r}; expected one of {_BACKENDS}"
        )
    return backend


def make_transport(backend: "str | Transport | None") -> Transport:
    """Instantiate the transport for ``backend`` (resolving defaults).

    A pre-built :class:`Transport` instance passes through unchanged —
    the hook for transports with constructor knobs that a plain name
    cannot carry (``SocketTransport(liveness_timeout=...)``).
    """
    if isinstance(backend, Transport):
        return backend
    backend = resolve_backend(backend)
    if backend == "procs":
        from .procs import ProcessTransport

        return ProcessTransport()
    if backend == "sockets":
        from .sockets import SocketTransport

        return SocketTransport()
    from .threads import ThreadTransport

    return ThreadTransport()
