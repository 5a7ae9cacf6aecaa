#!/usr/bin/env python3
"""Where a parallel world's wall time goes outside its solves, phase by phase.

    python tools/world_parts.py [--backend sockets] [-P 2] [--worlds 10]
                                [--solves 1] [--uncompiled]

Runs ``--worlds`` worlds of the benchmark's parallel program (the
48x48x33x48 HCCI surrogate, float32, QR, tol 1e-4, on the default grid)
one after another in this process, and times each from inside the rank
program through public calls only — ``run_spmd``, ``GridComms``,
``DistributedTensor``, ``sthosvd_parallel`` — against one clock
(``time.perf_counter`` is ``CLOCK_MONOTONIC``, shared by forked ranks):

    launch    run_spmd called -> the last rank enters the program
    imports   the program's imports (the parallel driver, the grid)
    grid      GridComms: the Cartesian topology and every mode fiber
    scatter   DistributedTensor.from_full
    solve     the solves and the barriers around them
    gather    the core's gather
    close     the last rank returns -> run_spmd returns (report, reap)
    outside   the world's wall time minus its solve windows, barrier to
              barrier (what the benchmark's setup_s adds to the import)

Each phase ends when the last rank ends it, so launch .. close add up
to the world's wall time.  The first world of a process is printed
on its own — it is the one that imports the parallel stack — then the
median [min, max] of the others.  ``--uncompiled`` re-runs the tool
under an empty ``PYTHONPYCACHEPREFIX`` with byte-code writing off, so
every import compiles from source, as in a fresh checkout on a host that
sets ``PYTHONDONTWRITEBYTECODE``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPE = (48, 48, 33, 48)
TOL = 1e-4
PHASES = ("launch", "imports", "grid", "scatter", "solve", "gather", "close",
          "outside")


def program(comm, x, n_solves):
    """The benchmark's rank program, with a timestamp between its steps."""
    t = {"entry": time.perf_counter()}
    from repro.core.sthosvd_parallel import sthosvd_parallel
    from repro.dist import DistributedTensor, GridComms, ProcessorGrid

    t["imported"] = time.perf_counter()
    comms = GridComms(comm, ProcessorGrid.for_size(comm.size, x.ndim))
    t["grid"] = time.perf_counter()
    dt = DistributedTensor.from_full(comms, x)
    t["scattered"] = time.perf_counter()
    windows = []
    for _ in range(n_solves):
        comm.barrier()
        start = time.perf_counter()
        res = sthosvd_parallel(dt, tol=TOL, method="qr")
        comm.barrier()
        windows.append(time.perf_counter() - start)
    t["solved"] = time.perf_counter()
    res.core.gather()
    t["exit"] = time.perf_counter()
    t["windows"] = windows
    return t


def one_world(run_spmd, x, args) -> dict:
    """One world's phases along its critical path: a phase ends when the
    last rank finishes it, so the phases add up to the wall time."""
    launch = time.perf_counter()
    ranks = run_spmd(program, args.nprocs, x, args.solves,
                     backend=args.backend, recv_timeout=60.0).values
    done = time.perf_counter()
    ends = [launch] + [max(r[step] for r in ranks) for step in
                       ("entry", "imported", "grid", "scattered", "solved",
                        "exit")] + [done]
    parts = dict(zip(("launch", "imports", "grid", "scatter", "solve",
                      "gather", "close"),
                     (b - a for a, b in zip(ends, ends[1:]))))
    windows = sum(max(r["windows"][k] for r in ranks)
                  for k in range(args.solves))
    parts["outside"] = done - launch - windows
    return parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", default="sockets",
                        choices=("threads", "procs", "sockets"))
    parser.add_argument("-P", "--nprocs", type=int, default=2)
    parser.add_argument("--worlds", type=int, default=10)
    parser.add_argument("--solves", type=int, default=1,
                        help="solves per world (outside excludes their windows)")
    parser.add_argument("--uncompiled", action="store_true",
                        help="import from source: empty PYTHONPYCACHEPREFIX")
    args = parser.parse_args(argv)
    if args.worlds < 2 or args.solves < 1:
        parser.error("need --worlds >= 2 and --solves >= 1")

    if args.uncompiled:
        rest = [a for a in (argv if argv is not None else sys.argv[1:])
                if a != "--uncompiled"]
        with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
            env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix,
                       PYTHONDONTWRITEBYTECODE="1")
            return subprocess.run([sys.executable, __file__, *rest],
                                  env=env).returncode

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as bench/run.py: one BLAS thread per rank
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.data import hcci_surrogate
    from repro.mpi import run_spmd

    x = np.asfortranarray(hcci_surrogate(SHAPE, seed=7).data, dtype=np.float32)
    worlds = [one_world(run_spmd, x, args) for _ in range(args.worlds)]

    source = ("imports compiled from source" if sys.pycache_prefix
              else "imports use the tree's .pyc, if any")
    print(f"# {args.backend}, P = {args.nprocs}, {args.worlds} worlds of "
          f"{args.solves} solve(s), {'x'.join(map(str, SHAPE))} float32 QR, "
          f"{source}; milliseconds to the last rank")
    print(f"{'phase':<8} {'world 1':>8}   {'median':>7} {'[min, max]':>16}  of worlds 2..")
    for phase in PHASES:
        rest = [w[phase] * 1e3 for w in worlds[1:]]
        print(f"{phase:<8} {worlds[0][phase] * 1e3:8.2f}   "
              f"{statistics.median(rest):7.2f} [{min(rest):6.2f}, {max(rest):6.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
