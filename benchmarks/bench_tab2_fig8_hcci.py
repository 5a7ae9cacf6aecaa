"""Table 2 / Figure 8 — HCCI compression, error, and time per tolerance.

Paper setup: compress HCCI at tolerances 1e-2, 1e-4, 1e-6, 1e-8 with all
four variants (4 nodes, backward ordering, 16x8x1x1 grid).  Expected
qualitative rows (Tab. 2):

* 1e-2: all four variants reach the same compression and error;
* 1e-4: Gram-single fails (compression 1.0, error stuck near its noise
  floor); the other three agree; QR-single is the fastest accurate one;
* 1e-6: QR-single degrades (error above tolerance / worse compression);
  Gram-double and QR-double agree;
* 1e-8: only QR-double attains the tolerance.

Functional runs at surrogate scale for accuracy/compression; modeled
runs at the paper's full HCCI dimensions for the Fig. 8b breakdown.
"""

from __future__ import annotations

import pytest

from repro.core import sthosvd
from repro.data import hcci_surrogate, PAPER_SHAPES
from repro.perf import ANDES, breakdown_table, simulate_sthosvd, variant_label
from repro.util import format_table

from conftest import VARIANTS

TOLERANCES = [1e-2, 1e-4, 1e-6, 1e-8]


@pytest.fixture(scope="module")
def hcci():
    return hcci_surrogate(shape=(48, 48, 24, 48))


def _row(X, tol, method, precision):
    res = sthosvd(X, tol=tol, method=method, precision=precision,
                  mode_order="backward")
    err = res.tucker.rel_error(X)
    return res.tucker.compression_ratio(), err, res.ranks


def test_report_tab2(hcci, write_report):
    def compute():
        table = {}
        for tol in TOLERANCES:
            for m, p in VARIANTS:
                table[(tol, m, p)] = _row(hcci, tol, m, p)
        return table

    table = compute()

    rows = []
    for tol in TOLERANCES:
        row = [f"{tol:.0e}"]
        for m, p in VARIANTS:
            cr, err, _ = table[(tol, m, p)]
            row.extend([cr, err])
        rows.append(row)
    headers = ["tol"]
    for m, p in VARIANTS:
        headers.extend([f"{m}-{p} compr", f"{m}-{p} err"])
    write_report(
        "tab2_hcci_compression",
        format_table(headers, rows, title="Tab. 2 (HCCI surrogate): compression & error"),
    )

    # --- 1e-2: everyone agrees and satisfies the tolerance -------------
    crs = {v: table[(1e-2, *v)][0] for v in VARIANTS}
    errs = {v: table[(1e-2, *v)][1] for v in VARIANTS}
    base_cr = crs[("qr", "double")]
    for v in VARIANTS:
        assert crs[v] == pytest.approx(base_cr, rel=0.1)
        assert errs[v] <= 1e-2
    assert base_cr > 20  # large compression at loose tolerance

    # --- 1e-4: Gram-single fails to compress ----------------------------
    cr_gs = table[(1e-4, "gram", "single")][0]
    cr_qs = table[(1e-4, "qr", "single")][0]
    cr_gd = table[(1e-4, "gram", "double")][0]
    assert cr_gs < 2.0  # essentially no compression
    assert cr_qs == pytest.approx(cr_gd, rel=0.15)
    assert table[(1e-4, "qr", "single")][1] <= 2e-4

    # --- 1e-6: QR-single degraded, doubles fine -------------------------
    err_qs6 = table[(1e-6, "qr", "single")][1]
    err_qd6 = table[(1e-6, "qr", "double")][1]
    assert err_qd6 <= 1e-6
    assert err_qs6 > err_qd6  # single can no longer match

    # --- 1e-8: only QR-double handles the tolerance well ----------------
    # Gram-double's sub-floor singular values are noise: it either misses
    # the tolerance (paper: error 2.5e-8) or wastes rank refusing to
    # truncate.  Either way QR-double strictly dominates it here.
    err_qd8, cr_qd8 = table[(1e-8, "qr", "double")][1], table[(1e-8, "qr", "double")][0]
    err_gd8, cr_gd8 = table[(1e-8, "gram", "double")][1], table[(1e-8, "gram", "double")][0]
    assert err_qd8 <= 1e-8
    assert err_gd8 > 1e-8 or cr_qd8 > 1.5 * cr_gd8
    # QR-single's f32 floor leaves it stuck well above this tolerance.
    assert table[(1e-8, "qr", "single")][1] > 1e-8


def test_report_fig8b_time_breakdown(write_report):
    """Fig. 8b at the real HCCI dimensions (modeled, 4 nodes, 16x8x1x1)."""
    shape = PAPER_SHAPES["hcci"]
    # Representative ranks at tol 1e-4 scaled from Tab. 2's compression.
    ranks = (120, 120, 20, 120)

    def compute():
        return {
            variant_label(m, p): simulate_sthosvd(
                shape, ranks, (16, 8, 1, 1), method=m, precision=p,
                mode_order="backward", machine=ANDES,
            )
            for m, p in VARIANTS
        }

    runs = compute()
    write_report(
        "fig8b_hcci_breakdown",
        breakdown_table(runs, title="Fig. 8b: HCCI 627x627x33x627, 128 procs (modeled)"),
    )
    t = {k: r.total_seconds for k, r in runs.items()}
    # QR single is the fastest accurate method at 1e-4: ~60% faster than
    # Gram double (the paper's headline for this dataset).
    assert t["Gram double"] / t["QR single"] > 1.3
    assert t["QR single"] < t["QR double"]
