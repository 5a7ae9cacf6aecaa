"""Socket-transport overhead snapshot: sockets vs procs on loopback.

Measures what the framed-TCP wire costs relative to the ``AF_UNIX``
links of the procs backend, with identical worker processes, the same
worker-to-worker data plane and the same master-side control plane on
both sides:

* **launch** — world spin-up + teardown of a trivial 4-rank program
  (fork + rendezvous handshake on both);
* **pingpong** — rank 0 <-> rank 1 round-trip latency at 8 B and
  64 KiB (framing + syscall cost per message);
* **allreduce** — a 1 MiB allreduce across 4 ranks (bulk-payload
  throughput through the codec paths);
* **sthosvd** — a small parallel ST-HOSVD end to end (the paper's
  workload shape: QR panels, Gram/SVD collectives, truncating TTMs).

Emits ``BENCH_sockets.json`` in the versioned snapshot schema that
``repro bench --compare`` diffs with tolerance bands; the committed
report pins the loopback overhead so a transport change that bloats
framing or serializes sends fails CI as a perf regression.  All times
are best-of-reps, lower is better; ``overhead`` holds the
sockets/procs wall ratios (also lower-is-better; a ratio near 1 means
the TCP wire is keeping up with the local sockets).

Usage::

    PYTHONPATH=src python benchmarks/bench_sockets.py \
        [--reps N] [--out BENCH_sockets.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core.sthosvd_parallel import sthosvd_parallel  # noqa: E402
from repro.data import low_rank_tensor  # noqa: E402
from repro.dist import (  # noqa: E402
    DistributedTensor,
    GridComms,
    ProcessorGrid,
)
from repro.mpi import run_spmd  # noqa: E402

REPORT = os.path.join(os.path.dirname(__file__), "reports",
                      "BENCH_sockets.json")
BACKENDS = ("procs", "sockets")
NPROCS = 4
PINGPONG_ITERS = 200
ALLREDUCE_ITERS = 20
ALLREDUCE_ELEMS = 131_072  # 1 MiB of float64
STHOSVD_SHAPE = (24, 24, 16)
STHOSVD_GRID = (2, 2, 1)

_X = low_rank_tensor(STHOSVD_SHAPE, (6, 6, 4), rng=7, noise=1e-9)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(__file__), check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _noop_program(comm):
    return comm.rank


def _pingpong_program(comm, nbytes, iters):
    """Rank 0 measures round trips to rank 1; others idle at a barrier."""
    payload = np.zeros(max(1, nbytes // 8))
    comm.barrier()
    rtt = None
    if comm.rank == 0:
        t0 = time.perf_counter()
        for i in range(iters):
            comm.send(payload, 1, tag=i)
            comm.recv(1, tag=i)
        rtt = (time.perf_counter() - t0) / iters
    elif comm.rank == 1:
        for i in range(iters):
            got = comm.recv(0, tag=i)
            comm.send(got.copy(), 0, tag=i)
    comm.barrier()
    return rtt


def _allreduce_program(comm, elems, iters):
    x = np.full(elems, float(comm.rank + 1))
    comm.allreduce(x)  # warm the dispatch path once
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(iters):
        comm.allreduce(x)
    return (time.perf_counter() - t0) / iters


def _sthosvd_program(comm):
    comms = GridComms(comm, ProcessorGrid(STHOSVD_GRID))
    dt = DistributedTensor.from_full(comms, _X.data)
    res = sthosvd_parallel(dt, tol=1e-6, method="qr")
    return res.ranks


def _best(fn, reps):
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        value = fn()
        walls.append(time.perf_counter() - t0)
    return min(walls), value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=3,
                    help="timing repetitions (best-of)")
    ap.add_argument("--out", default=REPORT)
    args = ap.parse_args(argv)

    sections = {name: {} for name in
                ("launch", "pingpong", "allreduce", "sthosvd")}
    for backend in BACKENDS:
        wall, _ = _best(
            lambda: run_spmd(_noop_program, NPROCS, backend=backend),
            args.reps)
        sections["launch"][backend] = {"best_wall_s": round(wall, 6)}

        entry = {}
        for label, nbytes in (("rtt8_us", 8), ("rtt64k_us", 65536)):
            best = None
            for _ in range(args.reps):
                res = run_spmd(_pingpong_program, 2, nbytes, PINGPONG_ITERS,
                               backend=backend)
                rtt = res.values[0]
                best = rtt if best is None else min(best, rtt)
            entry[label] = round(best * 1e6, 3)
        sections["pingpong"][backend] = entry

        best = None
        for _ in range(args.reps):
            res = run_spmd(_allreduce_program, NPROCS, ALLREDUCE_ELEMS,
                           ALLREDUCE_ITERS, backend=backend)
            per_call = max(v for v in res.values)
            best = per_call if best is None else min(best, per_call)
        sections["allreduce"][backend] = {"best_call_s": round(best, 6)}

        wall, ranks = _best(
            lambda: run_spmd(_sthosvd_program, NPROCS, backend=backend),
            args.reps)
        sections["sthosvd"][backend] = {"best_wall_s": round(wall, 6)}
        sections["sthosvd"].setdefault("ranks", list(ranks[0]))

    overhead = {
        "launch_ratio": round(
            sections["launch"]["sockets"]["best_wall_s"]
            / sections["launch"]["procs"]["best_wall_s"], 3),
        "pingpong8_ratio": round(
            sections["pingpong"]["sockets"]["rtt8_us"]
            / sections["pingpong"]["procs"]["rtt8_us"], 3),
        "allreduce_ratio": round(
            sections["allreduce"]["sockets"]["best_call_s"]
            / sections["allreduce"]["procs"]["best_call_s"], 3),
        "sthosvd_ratio": round(
            sections["sthosvd"]["sockets"]["best_wall_s"]
            / sections["sthosvd"]["procs"]["best_wall_s"], 3),
    }

    snap = {
        "bench": "sockets",
        "version": 1,
        "commit": _commit(),
        "generated_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "note": "loopback TCP socket transport vs AF_UNIX procs "
                "transport; identical forked workers, peer links and "
                "control plane, only the socket family differs; "
                "best-of-reps walls, overhead ratios are sockets/procs "
                "(lower is better).",
        "config": {
            "nprocs": NPROCS,
            "pingpong_iters": PINGPONG_ITERS,
            "allreduce_elems": ALLREDUCE_ELEMS,
            "allreduce_iters": ALLREDUCE_ITERS,
            "sthosvd_shape": list(STHOSVD_SHAPE),
            "sthosvd_grid": list(STHOSVD_GRID),
            "reps": args.reps,
        },
        "overhead": overhead,
        **sections,
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2)
        fh.write("\n")
    print(json.dumps(snap, indent=2))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
