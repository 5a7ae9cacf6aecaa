"""Kill-world -> restart-from-disk smoke for the durable checkpoint tier.

Two phases over one checkpoint directory, run as separate invocations:

``crash DIR``
    Launches a 4-rank checkpointed ST-HOSVD on the sockets backend
    (``sthosvd(dt, checkpoint=DistributedCheckpoint(ckpt_dir=DIR))``),
    then SIGKILLs its *entire process group* the moment the first
    manifest commits — master and every worker die
    with no chance to flush or hand over.  Run it under ``setsid -w``
    so the kill stays inside the smoke and the exit code propagates
    (137 = killed as planned; without ``-w`` setsid may fork, detach,
    and report 0 before the run even starts).

``resume DIR``
    A brand-new invocation pointed at the same directory.  Must resume
    from the newest committed manifest (a ``disk_resume`` event) and
    finish with factors bitwise-identical to an uninterrupted run.

CI wires this into the chaos-smoke job; locally::

    setsid -w env PYTHONPATH=src python tools/killworld_smoke.py crash /tmp/kw
    PYTHONPATH=src python tools/killworld_smoke.py resume /tmp/kw
"""

from __future__ import annotations

import glob
import os
import signal
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import sthosvd  # noqa: E402
from repro.dist import DistributedTensor, GridComms, ProcessorGrid  # noqa: E402
from repro.faults import DistributedCheckpoint  # noqa: E402
from repro.mpi import run_spmd  # noqa: E402

SHAPE = (16, 14, 12)
RANKS = (6, 5, 4)
FULL = np.asfortranarray(np.random.default_rng(11).standard_normal(SHAPE))


def _prog_factory(ckpt_dir):
    def prog(comm):
        grid = ProcessorGrid.for_size(comm.size, FULL.ndim)
        dt = DistributedTensor.from_full(GridComms(comm, grid), FULL)
        res = sthosvd(dt, ranks=RANKS, method="qr",
                      checkpoint=DistributedCheckpoint("sthosvd",
                                                       ckpt_dir=ckpt_dir))
        return (
            [e[0] for e in res.rank_failures],
            [np.asarray(f).copy() for f in res.factors],
        )
    return prog


def crash(ckpt_dir: str) -> None:
    os.makedirs(ckpt_dir, exist_ok=True)

    def reaper() -> None:
        # The manifest is the commit point and is written last, so the
        # instant one exists there is a complete, resumable checkpoint
        # on disk — the harshest possible moment to lose the world.
        while not glob.glob(os.path.join(ckpt_dir, "*-manifest-*.json")):
            time.sleep(0.01)
        os.killpg(os.getpgid(0), signal.SIGKILL)

    threading.Thread(target=reaper, daemon=True).start()
    run_spmd(_prog_factory(ckpt_dir), 4, backend="sockets")
    sys.exit("the reaper never fired: no manifest was ever committed")


def resume(ckpt_dir: str) -> None:
    manifests = glob.glob(os.path.join(ckpt_dir, "*-manifest-*.json"))
    if not manifests:
        sys.exit(f"{ckpt_dir}: no committed manifest survived the kill")
    res = run_spmd(_prog_factory(ckpt_dir), 4, backend="sockets")
    vals = [v for v in res.values if v is not None]
    assert len(vals) == 4, res.values
    assert all("disk_resume" in v[0] for v in vals), [v[0] for v in vals]
    base = run_spmd(_prog_factory(None), 4, backend="sockets")
    for a, b in zip(base.values[0][1], vals[0][1]):
        assert np.array_equal(a, b), "restart-from-disk factors differ"
    print(f"kill-world restart ok: resumed from {len(manifests)} "
          f"manifest(s), factors bitwise-identical to the clean run")


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[1] not in ("crash", "resume"):
        print(__doc__, file=sys.stderr)
        return 2
    {"crash": crash, "resume": resume}[sys.argv[1]](sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
