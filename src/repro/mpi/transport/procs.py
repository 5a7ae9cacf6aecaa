"""Process transport: forked rank workers joined by ``AF_UNIX`` links.

True multi-core execution for the simulated runtime on one host.  This
is the socket transport (:mod:`~repro.mpi.transport.sockets` — worker
processes that own their mailboxes and exchange payloads directly, one
hop, with the master on the control plane only) with two differences:

* the links are ``AF_UNIX`` stream sockets in a private temporary
  directory instead of TCP, so there is no port, no Nagle, and no
  network between the ranks;
* a local socket cannot partition, so a worker whose links hit EOF
  without a lifecycle report is dead on the spot
  (:class:`~repro.errors.RankFailedError` reaches its blocked partners
  at once) instead of when the liveness deadline expires.

Workers are always forked: closures and caller objects work unchanged,
and everything above the wire — the worker context, the observability
shards, the master's RPC dispatch, the drain-by-count rule — is
:mod:`~repro.mpi.transport.worldproxy`, shared with the sockets
backend.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile

from .sockets import SocketTransport

__all__ = ["ProcessTransport"]


class ProcessTransport(SocketTransport):
    """Ranks as forked processes on one host."""

    name = "procs"
    eof_is_death = True

    def __init__(self) -> None:
        super().__init__()

    def _open_listener(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(os.path.join(tempfile.mkdtemp(prefix="repro-spmd-"), "master"))
        sock.listen()
        return sock

    def _close_listener(self, listener) -> None:
        directory = os.path.dirname(listener.getsockname())
        listener.close()
        shutil.rmtree(directory, ignore_errors=True)
