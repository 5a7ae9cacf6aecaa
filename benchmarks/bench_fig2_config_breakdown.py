"""Figure 2 — time breakdown across mode orderings and processor grids.

Paper setup: (a) Cascade Lake, 16 processes, 300^4 tensor -> 30^4 core;
(b) Andes, 512 processes, 500^4 -> 50^4.  For each platform, forward and
backward orderings are paired with back-loaded through front-loaded
grids.  Expected shapes: more than half of the time in the first LQ; the
fastest grid per ordering sets the first-processed mode's grid dimension
to 1; on Cascade Lake backward+back-loaded beats forward+front-loaded
(geqr > gelq), while Andes is ordering-indifferent.

Modeled-mode experiment (the full-scale runs need 512 cores); a small
functional cross-check of a real run's breakdown accompanies it.
"""

from __future__ import annotations

from repro.core import sthosvd
from repro.data import low_rank_tensor
from repro.obs import Tracer, activate, deactivate
from repro.perf import ANDES, CASCADE_LAKE, breakdown_table, simulate_sthosvd

# (label, grid, ordering) — back-loaded to front-loaded, as in Fig. 2a.
CL_CONFIGS = [
    ("fwd 1x1x2x8", (1, 1, 2, 8), "forward"),
    ("fwd 1x2x2x4", (1, 2, 2, 4), "forward"),
    ("fwd 8x2x1x1", (8, 2, 1, 1), "forward"),
    ("bwd 8x2x1x1", (8, 2, 1, 1), "backward"),
    ("bwd 4x2x2x1", (4, 2, 2, 1), "backward"),
    ("bwd 1x1x2x8", (1, 1, 2, 8), "backward"),
]

ANDES_CONFIGS = [
    ("fwd 1x4x8x16", (1, 4, 8, 16), "forward"),
    ("fwd 16x8x4x1", (16, 8, 4, 1), "forward"),
    ("bwd 16x8x4x1", (16, 8, 4, 1), "backward"),
    ("bwd 1x4x8x16", (1, 4, 8, 16), "backward"),
]


def _runs(machine, shape, ranks, configs):
    out = {}
    for label, grid, order in configs:
        out[label] = simulate_sthosvd(
            shape, ranks, grid, method="qr", precision="double",
            mode_order=order, machine=machine,
        )
    return out


def test_report_fig2a_cascade_lake(write_report):
    runs = _runs(CASCADE_LAKE, (300,) * 4, (30,) * 4, CL_CONFIGS)
    write_report(
        "fig2a_cascade_lake_breakdown",
        breakdown_table(runs, title="Fig. 2a: QR double, 16 procs, 300^4 -> 30^4"),
    )
    totals = {k: r.total_seconds for k, r in runs.items()}
    # Within each ordering the P=1-on-first-processed-mode grid wins.
    assert totals["fwd 1x1x2x8"] < totals["fwd 8x2x1x1"]
    assert totals["bwd 8x2x1x1"] < totals["bwd 1x1x2x8"]
    # Backward + geqr beats forward + gelq on Cascade Lake (Sec. 4.2.4).
    assert totals["bwd 8x2x1x1"] < totals["fwd 1x1x2x8"]
    # First LQ dominates: more than half the time in every config.
    for label, run in runs.items():
        first = run.mode_order[0]
        assert run.seconds_by_phase_mode[("lq", first)] > 0.4 * run.total_seconds


def test_report_fig2b_andes(write_report):
    runs = _runs(ANDES, (500,) * 4, (50,) * 4, ANDES_CONFIGS)
    write_report(
        "fig2b_andes_breakdown",
        breakdown_table(runs, title="Fig. 2b: QR double, 512 procs, 500^4 -> 50^4"),
    )
    totals = {k: r.total_seconds for k, r in runs.items()}
    # Andes: geqr == gelq, so the symmetric configs are nearly equal.
    a, b = totals["bwd 16x8x4x1"], totals["fwd 1x4x8x16"]
    assert abs(a - b) / max(a, b) < 0.25
    # Good configs beat bad ones on both orderings.
    assert totals["fwd 1x4x8x16"] < totals["fwd 16x8x4x1"]
    assert totals["bwd 16x8x4x1"] < totals["bwd 1x4x8x16"]


def test_functional_breakdown_first_mode_dominates():
    """The wall-clock breakdown of a real run shows the first reduction
    dominating, matching the modeled shape."""
    X = low_rank_tensor((36, 36, 36, 36), (5, 5, 5, 5), rng=2, noise=1e-9)

    tracer = Tracer()
    activate(tracer)
    try:
        sthosvd(X, ranks=(5,) * 4, method="qr")
    finally:
        deactivate()
    first_lq = sum(s.duration for s in tracer.spans
                   if s.phase == "lq" and s.mode == 0 and not s.self_nested)
    assert first_lq > 0.3 * sum(tracer.by_phase().values())
