"""A process world forks from a warm parent.

The parallel drivers load on first use, and a rank program's first use
is in a forked worker.  Each worker therefore reports, with its
lifecycle RPC, the ``repro`` modules it imported beyond those it
inherited at fork, and the master imports them once the world is closed,
so the next world's workers inherit them instead of importing them
again.  On ``threads`` the ranks run in the caller's interpreter and the
same property holds without a report.

Each case runs in a fresh interpreter: what ``sys.modules`` holds is a
property of the process, and this one has long since loaded everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent


def fresh(program: str, backend: str):
    """What ``program`` prints as JSON, run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", f"BACKEND = {backend!r}\n"
         + textwrap.dedent(program)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


_WORLDS = """
import json, sys
import numpy as np
from repro.mpi import run_spmd
from repro.mpi.transport.worldproxy import WorldServerMixin

reported = set()
finish = WorldServerMixin._finish_rank

def spy(self, context, link, method, payload, shards, report):
    reported.update(report["imported"])
    return finish(self, context, link, method, payload, shards, report)

WorldServerMixin._finish_rank = spy
X = np.random.default_rng(3).standard_normal((8, 6, 5, 8)).astype(np.float32)

def solve(comm, at_fork):
    from repro.core.sthosvd import sthosvd
    from repro.dist import DistributedTensor, GridComms, ProcessorGrid

    comms = GridComms(comm, ProcessorGrid.for_size(comm.size, X.ndim))
    dt = DistributedTensor.from_full(comms, X)
    comm.barrier()
    first = sorted(set(sys.modules) - at_fork)
    # On threads the ranks share sys.modules: no rank may import ahead
    # of another's snapshot.
    comm.barrier()
    sthosvd(dt, tol=1e-2, method="qr").core.gather()
    return first, sorted(set(sys.modules) - at_fork)

def world(program):
    reported.clear()
    at = set(sys.modules)
    values = run_spmd(program, 2, at, backend=BACKEND, recv_timeout=60).values
    return {"ranks": values, "gained": sorted(set(sys.modules) - at),
            "reported": sorted(reported)}

# The first world loads the runtime itself into the master.
world(lambda comm, at_fork: comm.barrier())
print(json.dumps({"cold": world(solve), "warm": world(solve)}))
"""


@pytest.mark.parametrize("backend", ["threads", "procs", "sockets"])
def test_the_second_world_imports_nothing(backend):
    out = fresh(_WORLDS, backend)
    cold, warm = out["cold"], out["warm"]
    # Cold: the program's first use loads the parallel stack.
    for first, done in cold["ranks"]:
        for module in ("repro.dist.svd", "repro.dist.ttm"):
            assert module in done and module not in first
    loaded = sorted(set().union(*(set(done) for _, done in cold["ranks"])))
    assert all(name.startswith("repro.") for name in loaded)
    # The master gains exactly what the workers report, and nothing that
    # is not part of the package.
    assert cold["gained"] == loaded
    assert cold["reported"] == (loaded if backend != "threads" else [])
    # Warm: no worker imports a module before its first barrier, or after.
    assert warm["ranks"] == [[[], []]] * 2
    assert warm["gained"] == warm["reported"] == []


_BOOM = """
import json, os, sys, tempfile
import repro
from repro.mpi import run_spmd

def program(comm):
    import repro._warm_boom  # noqa: F401
    comm.barrier()
    return comm.rank

# A package module that loads in a forked worker and raises anywhere else.
with tempfile.TemporaryDirectory() as scratch:
    with open(os.path.join(scratch, "_warm_boom.py"), "w") as f:
        f.write("import multiprocessing\\n"
                "if multiprocessing.parent_process() is None:\\n"
                "    raise RuntimeError('refuses to load outside a worker')\\n")
    repro.__path__.append(scratch)
    values = [run_spmd(program, 2, backend=BACKEND).values for _ in range(2)]
print(json.dumps({"values": values,
                  "loaded": "repro._warm_boom" in sys.modules}))
"""


@pytest.mark.parametrize("backend", ["procs", "sockets"])
def test_a_module_that_fails_in_the_master_does_not_fail_the_world(backend):
    out = fresh(_BOOM, backend)
    assert out == {"values": [[0, 1], [0, 1]], "loaded": False}
