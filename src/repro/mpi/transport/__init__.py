"""Pluggable rank transports for the simulated SPMD runtime.

A :class:`~repro.mpi.transport.base.Transport` owns *how ranks execute
and exchange envelopes*: :class:`~repro.mpi.transport.threads.
ThreadTransport` (the default) runs ranks as threads of one process
sharing the world's mailboxes directly, while :class:`~repro.mpi.
transport.procs.ProcessTransport` runs each rank as a forked worker
process that owns its mailboxes and exchanges payloads with its peers
over direct ``AF_UNIX`` links, the master keeping the control plane
only — true multi-core execution for the GIL-bound portions of the
kernels.  :class:`~repro.mpi.transport.sockets.SocketTransport` is the
same world over framed TCP connections hardened with retry policies,
heartbeats, and liveness deadlines.  Select one
with ``run_spmd(..., backend="threads"|"procs"|"sockets")`` or the
``REPRO_SPMD_BACKEND`` environment variable; transports with
constructor knobs can be passed as instances
(``run_spmd(..., backend=SocketTransport(liveness_timeout=2.0))``).
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Transport", "available_backends", "make_transport",
              "resolve_backend"),
    ".threads": ("ThreadTransport",),
    ".procs": ("ProcessTransport",),
    ".sockets": ("SocketTransport",),
})

__all__ = [
    "Transport",
    "ThreadTransport",
    "ProcessTransport",
    "SocketTransport",
    "available_backends",
    "make_transport",
    "resolve_backend",
]
