#!/usr/bin/env python3
"""What one message costs on each backend, against a raw socketpair.

    PYTHONPATH=src python tools/wire_cost.py [--n 60]

Two ranks; rank 0 times ``--n`` ``sendrecv`` calls of a float64 array,
each right after a ``barrier``, on ``threads``, ``procs`` and
``sockets``, for 8 B, 9 KiB and 1 MiB payloads.  The floor beside them
is a forked ``socketpair`` ping-pong: the payload one way and a 1-byte
reply, with default socket buffers and with 4 MiB ones.  Prints the
median [quartiles] in µs of each, the first 5 samples dropped.  Run
nothing else meanwhile: the numbers are per message and the hosts have
two cores.
"""

from __future__ import annotations

import argparse
import os
import socket
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.mpi import run_spmd  # noqa: E402

SIZES = (8, 9 * 1024, 1 << 20)
WARMUP = 5


def _sendrecv_times(comm, nbytes: int, n: int) -> list:
    payload = np.zeros(max(nbytes // 8, 1))
    peer = 1 - comm.rank
    times = []
    for _ in range(n):
        comm.barrier()
        t0 = time.perf_counter()
        comm.sendrecv(payload, peer, tag=5)
        times.append(time.perf_counter() - t0)
    return times


def _raw_times(nbytes: int, n: int, bufsize: int | None) -> list:
    a, b = socket.socketpair()
    if bufsize:
        for s in (a, b):
            s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, bufsize)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, bufsize)
    pid = os.fork()
    if pid == 0:
        a.close()
        for _ in range(n):
            got = 0
            while got < nbytes:
                got += len(b.recv(nbytes - got))
            b.sendall(b"y")
        os._exit(0)
    b.close()
    message = b"x" * nbytes
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        a.sendall(message)
        a.recv(1)
        times.append(time.perf_counter() - t0)
    os.waitpid(pid, 0)
    a.close()
    return times


def _summary(times: list) -> str:
    q1, q2, q3 = statistics.quantiles(times[WARMUP:], n=4)
    return f"{q2 * 1e6:8.0f} [{q1 * 1e6:.0f}-{q3 * 1e6:.0f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=60)
    n = parser.parse_args().n
    for backend in ("threads", "procs", "sockets"):
        for nbytes in SIZES:
            times = run_spmd(_sendrecv_times, 2, nbytes, n,
                             backend=backend).values[0]
            print(f"{backend:8s} sendrecv {nbytes:8d} B  {_summary(times)} us")
    for bufsize in (None, 4 << 20):
        for nbytes in (8, 1 << 20):
            label = f"raw socketpair buf={bufsize or 'default'}"
            print(f"{label:30s} {nbytes:8d} B  "
                  f"{_summary(_raw_times(nbytes, n, bufsize))} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
