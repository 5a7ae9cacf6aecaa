"""The paper's parallel drivers under the live sanitizer.

``sthosvd`` and ``hooi`` x {qr, gram} run on a 16x14x12 tensor scattered
by ``distribute_from_root`` at P = 2, 3 and 4 (P = 3 takes the
butterfly's excess-rank fold) under ``sanitize=True``: every exchange of
Alg. 3 — the fiber redistribution, the butterfly TSQR rounds, the TTM
reduce-scatter — is judged, and the run must be clean.  The checker must
not change the traffic either: each rank sends and receives as many
messages as in the same run without it.  The drivers run on the default
SPMD backend (``REPRO_SPMD_BACKEND``; threads unless CI says sockets).

Five seeded mutations of the distributed path, each made on a copy of
the module's source, must then be named by their rule well inside a
20 s backstop: a rank that skips a butterfly round, a butterfly tag off
by one on one rank, a rank that scatters the input from the wrong root,
a scatter that sends one rank's block under a tag it does not receive,
and a TTM reduce-scatter whose pieces differ in shape on one rank.
"""

from __future__ import annotations

import inspect
import time

import pytest

import repro.dist.redistribute as redistribute
import repro.dist.tsqr as tsqr
import repro.dist.ttm as ttm
from repro.core import hooi, sthosvd
from repro.data import low_rank_tensor
from repro.dist import GridComms, ProcessorGrid
from repro.errors import SanitizerError
from repro.mpi import CommTrace, run_spmd

SHAPE = (16, 14, 12)
RANKS = (6, 5, 4)
TIMEOUT = 20.0  # backstop; every detection must beat it
X = low_rank_tensor(SHAPE, (4, 4, 3), rng=7, noise=1e-3).data


def _solve(comm, driver, method):
    comms = GridComms(comm, ProcessorGrid.for_size(comm.size, len(SHAPE)))
    dt = redistribute.distribute_from_root(comms, X)
    if driver == "hooi":
        res = hooi(dt, RANKS, method=method, max_iters=2)
    else:
        res = sthosvd(dt, ranks=RANKS, method=method)
    return res.ranks


def _traffic(trace: CommTrace, nprocs: int):
    return [(trace.sent_messages(r), trace.recv_messages(r))
            for r in range(nprocs)]


@pytest.mark.parametrize("nprocs", [2, 3, 4])
@pytest.mark.parametrize("method", ["qr", "gram"])
@pytest.mark.parametrize("driver", ["sthosvd", "hooi"])
def test_driver_runs_clean_with_unchanged_traffic(driver, method, nprocs):
    plain, checked = CommTrace(), CommTrace()
    want = run_spmd(_solve, nprocs, driver, method, comm_trace=plain,
                    recv_timeout=TIMEOUT)
    got = run_spmd(_solve, nprocs, driver, method, comm_trace=checked,
                   sanitize=True, recv_timeout=TIMEOUT)
    assert got.sanitizer.findings == []
    assert got.values == want.values == [RANKS] * nprocs
    assert _traffic(checked, nprocs) == _traffic(plain, nprocs)
    assert sum(m for m, _ in _traffic(plain, nprocs)) > 0


def _mutant(module, name: str, old: str, new: str):
    """``module.name`` compiled from a copy of the module's source in
    which the one occurrence of ``old`` reads ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    namespace = {"__name__": f"{module.__name__}_mutant",
                 "__package__": module.__package__}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    return namespace[name]


MUTATIONS = {
    "skipped-butterfly-round": (
        tsqr, "butterfly_tsqr_reduce",
        "        partner = me ^ (1 << r)\n",
        "        if me == 1 and r == 0:\n"
        "            continue\n"
        "        partner = me ^ (1 << r)\n",
        "deadlock"),
    "butterfly-tag-off-by-one": (
        tsqr, "butterfly_tsqr_reduce",
        "tag=_TSQR_TAG + 1 + r,",
        "tag=_TSQR_TAG + 1 + r + (me == 1),",
        "deadlock"),
    "mismatched-scatter-root": (
        redistribute, "distribute_from_root",
        "    comm = comms.comm\n",
        "    comm = comms.comm\n"
        "    root += comm.rank == 1\n",
        "collective-mismatch"),
    # Rank 1 waits for its block under the scatter's tag, which the root
    # sent it under the next one; the root waits for rank 1 further on.
    "scatter-tag-swap": (
        redistribute, "distribute_from_root",
        "comm.send(block, r, tag=_DIST_TAG, copy=False)",
        "comm.send(block, r, tag=_DIST_TAG + (r == 1), copy=False)",
        "deadlock"),
    # One rank's last piece is a column short: the reduction's payloads
    # no longer agree.
    "ragged-ttm-reduce-scatter": (
        ttm, "par_ttm_truncate",
        "            block = dt.comms.fiber(n).reduce_scatter(",
        "            if dt.comms.comm.rank == 1:\n"
        "                pieces[-1] = pieces[-1][..., :-1]\n"
        "            block = dt.comms.fiber(n).reduce_scatter(",
        "collective-mismatch"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_seeded_mutation_is_named_by_its_rule(mutation, monkeypatch):
    module, name, old, new, rule = MUTATIONS[mutation]
    monkeypatch.setattr(module, name, _mutant(module, name, old, new))
    start = time.monotonic()
    with pytest.raises(SanitizerError) as ei:
        run_spmd(_solve, 4, "sthosvd", "qr", sanitize=True,
                 recv_timeout=TIMEOUT, backend="threads")
    assert time.monotonic() - start < TIMEOUT / 2
    assert {d.kind for d in ei.value.diagnostics} == {rule}


def test_unmutated_copies_are_clean(monkeypatch):
    """The harness itself changes nothing: the copies, unedited, run
    clean."""
    for module, name, old, _, _ in MUTATIONS.values():
        monkeypatch.setattr(module, name, _mutant(module, name, old, old))
    res = run_spmd(_solve, 4, "sthosvd", "qr", sanitize=True,
                   recv_timeout=TIMEOUT, backend="threads")
    assert res.sanitizer.findings == []
