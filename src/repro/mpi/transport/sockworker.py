"""Standalone entry point for spawned socket-transport workers.

``REPRO_SOCKETS_TOKEN=... python -m repro.mpi.transport.sockworker
--addr HOST:PORT --rank R`` dials the master's rendezvous listener,
completes the hello handshake on the ctl link, receives its boot blob
(the SPMD program, its arguments, and the world configuration,
pickled), binds the listener its peers will dial, raises the data link
(whose hello reports that listener), and runs the rank to completion.  This is what
``SocketTransport(hosts=[...])`` launches instead of forking — a fresh
interpreter with no inherited state, the shape a real multi-host
deployment has.  Running the same command by hand on another machine
(with ``--addr`` pointing back at the master) joins that host to the
world; the handshake needs nothing but TCP reachability — to the
master and between the workers — and the shared token.  The token travels in the
``REPRO_SOCKETS_TOKEN`` environment variable, not argv — command
lines are world-readable via ps/procfs, and the secret must not be.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys

from ...errors import CommunicatorError
from ...faults.network import NetworkFaultState
from .sockets import _connect_framed, _run_sock_worker
from .worldproxy import WorkerConfig

__all__ = ["main"]

_BOOT_TIMEOUT = 60.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mpi.transport.sockworker",
        description="join a repro SPMD world as one socket-transport rank",
    )
    parser.add_argument("--addr", required=True, metavar="HOST:PORT",
                        help="the master's rendezvous listener")
    parser.add_argument("--rank", required=True, type=int)
    ns = parser.parse_args(argv)
    host, _, port = ns.addr.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--addr must be HOST:PORT, got {ns.addr!r}")
    addr = (host, int(port))
    rank = ns.rank
    from .sockets import TOKEN_ENV_VAR

    token = os.environ.get(TOKEN_ENV_VAR)
    if not token:
        parser.error(
            f"set {TOKEN_ENV_VAR} to the shared secret from the master's "
            f"address book (the token never travels on argv: command "
            f"lines are world-readable via ps/procfs)"
        )

    # The ctl link comes up first and carries the boot blob; injected
    # connect-refusal rules (which ride in the blob) therefore apply
    # only to the connects after it in spawn mode.
    counters = {"attempts": 0, "retries": 0}
    from .net import DEFAULT_CONNECT_POLICY

    ctl = _connect_framed(
        addr, {"purpose": "ctl", "rank": rank, "token": token,
               "generation": 1},
        DEFAULT_CONNECT_POLICY, None, counters,
    )
    header, _ = ctl.recv(timeout=_BOOT_TIMEOUT)
    if not (isinstance(header, tuple) and header and header[0] == "boot"):
        raise CommunicatorError(
            f"rank {rank}: expected a boot blob on the ctl link, "
            f"got {header!r}"
        )
    fn, args, kwargs, state, netrules, knobs = pickle.loads(header[1])
    cfg = object.__new__(WorkerConfig)
    for slot in WorkerConfig.__slots__:
        setattr(cfg, slot, state[slot])

    netstate = NetworkFaultState(netrules, rank) if netrules else None
    if netstate is not None and not netstate.active:
        netstate = None
    _run_sock_worker(cfg, rank, fn, args, kwargs, ctl, addr, token,
                     netstate, knobs, counters)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
