"""Figure 3 — weak scaling across algorithms and precisions.

Paper setup: random (250k)^4 tensor on k^4 Andes nodes (32k^4 cores) for
k in {1,2,3}, compressed to (25k)^4; local data fixed at ~1 GB.  QR uses
backward ordering on a 4k^2 x 4k x 2k x 1 grid, Gram forward on
1 x 2k x 4k x 4k^2.  Expected shapes (Fig. 3a/b):

* GFLOPS/core: QR ~6.4 double / ~13 single on one node, moderately lower
  at 81 nodes; all variants scale similarly.
* Total time: Gram-single < QR-single < Gram-double < QR-double, with
  runtime growing with k (column counts grow even though local data is
  fixed).
* More than half the time in the first LQ/Gram operation.

Modeled-mode at full scale, plus a functional weak-scaling run at small
scale on the threaded runtime with the logical-clock cost model.
"""

from __future__ import annotations

import pytest

from repro.core import sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import run_spmd, CostModel
from repro.perf import (
    ANDES,
    breakdown_table,
    scaling_table,
    simulate_sthosvd,
    variant_label,
    weak_scaling_config,
)

from conftest import VARIANTS


def _weak_runs():
    runs = {}
    for k in (1, 2, 3):
        cfg = weak_scaling_config(k)
        for method, prec in VARIANTS:
            run = simulate_sthosvd(
                cfg["shape"], cfg["ranks"], cfg[f"{method}_grid"],
                method=method, precision=prec,
                mode_order=cfg[f"{method}_order"], machine=ANDES,
            )
            runs[(k, method, prec)] = run
    return runs


def test_report_fig3(write_report):
    runs = _weak_runs()

    gflops_series = {}
    time_series = {}
    for method, prec in VARIANTS:
        label = variant_label(method, prec)
        gflops_series[label] = [
            (weak_scaling_config(k)["cores"], runs[(k, method, prec)].gflops_per_core())
            for k in (1, 2, 3)
        ]
        time_series[label] = [
            (weak_scaling_config(k)["cores"], runs[(k, method, prec)].total_seconds)
            for k in (1, 2, 3)
        ]
    txt = scaling_table(
        gflops_series, ylabel="GFLOPS/core",
        title="Fig. 3a: weak scaling performance (modeled, Andes)",
    )
    txt += "\n\n" + scaling_table(
        time_series, ylabel="s",
        title="Fig. 3b totals: weak scaling time (modeled, Andes)",
    )
    txt += "\n\n" + breakdown_table(
        {variant_label(m, p): runs[(2, m, p)] for m, p in VARIANTS},
        title="Fig. 3b breakdown at k=2 (512 cores)",
    )
    write_report("fig3_weak_scaling", txt)

    # Fig. 3a anchors: QR single-node GFLOPS/core.
    assert runs[(1, "qr", "double")].gflops_per_core() == pytest.approx(6.4, rel=0.2)
    assert runs[(1, "qr", "single")].gflops_per_core() == pytest.approx(13.0, rel=0.2)
    for k in (1, 2, 3):
        t = {(m, p): runs[(k, m, p)].total_seconds for m, p in VARIANTS}
        # Fig. 3b ordering.
        assert t[("gram", "single")] < t[("qr", "single")] < t[("gram", "double")] < t[("qr", "double")]
        # First reduction dominates.
        rq = runs[(k, "qr", "double")]
        first = rq.mode_order[0]
        assert rq.seconds_by_phase_mode[("lq", first)] > 0.5 * rq.total_seconds
    # Time grows with k (more columns per unfolding).
    for m, p in VARIANTS:
        assert runs[(1, m, p)].total_seconds < runs[(2, m, p)].total_seconds
        assert runs[(2, m, p)].total_seconds < runs[(3, m, p)].total_seconds


FUNCTIONAL_SCALES = [1, 2]


@pytest.mark.parametrize("k", FUNCTIONAL_SCALES)
def test_functional_weak_scaling(k):
    """Functional weak scaling on the threaded runtime: 12k^3 tensor on
    k^3 ranks, fixed local volume, with logical clocks attached."""
    shape = (12 * k,) * 3
    ranks = (3 * k,) * 3
    grid = (k, k, k)
    X = low_rank_tensor(shape, ranks, rng=k, noise=1e-10)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid))
        dt = DistributedTensor.from_full(comms, X.data)
        sthosvd(dt, ranks=ranks, method="qr")
        return comm.clock.now

    modeled = run_spmd(prog, k**3, cost_model=CostModel()).slowest_time
    assert modeled > 0
