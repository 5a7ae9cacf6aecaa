"""Table 3 / Figure 9 — SP (Stats-Planar) compression, error, and time.

Paper setup: 5-mode SP tensor (500x500x500x11x100) at tolerances 1e-2 to
1e-8, 50 nodes, 40x20x2x1x1 grid, backward ordering for all variants.
Expected qualitative rows (Tab. 3) — same structure as HCCI but more
compressible:

* 1e-2: all variants compress hugely (paper: ~6e4) within tolerance;
* 1e-4: Gram-single fails (1.0); QR-single matches the doubles and beats
  TuckerMPI by ~50% in time;
* 1e-6: QR-single degraded; doubles agree;
* 1e-8: only QR-double is accurate enough.
"""

from __future__ import annotations

import pytest

from repro.core import sthosvd
from repro.data import sp_surrogate, PAPER_SHAPES
from repro.perf import ANDES, breakdown_table, simulate_sthosvd, variant_label
from repro.util import format_table

from conftest import VARIANTS

TOLERANCES = [1e-2, 1e-4, 1e-6, 1e-8]


@pytest.fixture(scope="module")
def sp():
    return sp_surrogate(shape=(26, 26, 26, 11, 18))


def test_report_tab3(sp, write_report):
    def compute():
        table = {}
        for tol in TOLERANCES:
            for m, p in VARIANTS:
                res = sthosvd(sp, tol=tol, method=m, precision=p,
                              mode_order="backward")
                table[(tol, m, p)] = (
                    res.tucker.compression_ratio(),
                    res.tucker.rel_error(sp),
                )
        return table

    table = compute()

    rows = []
    for tol in TOLERANCES:
        row = [f"{tol:.0e}"]
        for m, p in VARIANTS:
            cr, err = table[(tol, m, p)]
            row.extend([cr, err])
        rows.append(row)
    headers = ["tol"]
    for m, p in VARIANTS:
        headers.extend([f"{m}-{p} compr", f"{m}-{p} err"])
    write_report(
        "tab3_sp_compression",
        format_table(headers, rows, title="Tab. 3 (SP surrogate): compression & error"),
    )

    # 1e-2: everything compresses a lot and satisfies the tolerance.
    for m, p in VARIANTS:
        cr, err = table[(1e-2, m, p)]
        assert err <= 1e-2
        assert cr > 50  # SP is the most compressible dataset

    # 1e-4: Gram-single collapses (orders of magnitude below the rest);
    # QR-single matches the doubles.
    cr_qs = table[(1e-4, "qr", "single")][0]
    assert table[(1e-4, "gram", "single")][0] < 0.01 * cr_qs
    cr_qd = table[(1e-4, "qr", "double")][0]
    assert cr_qs == pytest.approx(cr_qd, rel=0.15)
    assert table[(1e-4, "qr", "single")][1] <= 2e-4

    # 1e-6: sits near QR-single's noise floor — it is at best no better
    # than QR-double here and clearly fails one decade tighter.
    assert table[(1e-6, "qr", "single")][1] >= 0.9 * table[(1e-6, "qr", "double")][1]
    assert table[(1e-6, "gram", "double")][1] <= 2e-6
    assert table[(1e-8, "qr", "single")][1] > 1e-7

    # 1e-8: QR-double dominates Gram-double (error or compression).
    err_qd, cr_qd8 = table[(1e-8, "qr", "double")][1], table[(1e-8, "qr", "double")][0]
    err_gd, cr_gd8 = table[(1e-8, "gram", "double")][1], table[(1e-8, "gram", "double")][0]
    assert err_qd <= 1e-8
    assert err_gd > 1e-8 or cr_qd8 >= cr_gd8


def test_report_fig9b_time_breakdown(write_report):
    """Fig. 9b at the real SP dimensions (modeled, 50 nodes, 40x20x2x1x1)."""
    shape = PAPER_SHAPES["sp"]
    ranks = (60, 60, 60, 9, 25)  # representative of tol 1e-4

    def compute():
        return {
            variant_label(m, p): simulate_sthosvd(
                shape, ranks, (40, 20, 2, 1, 1), method=m, precision=p,
                mode_order="backward", machine=ANDES,
            )
            for m, p in VARIANTS
        }

    runs = compute()
    write_report(
        "fig9b_sp_breakdown",
        breakdown_table(runs, title="Fig. 9b: SP 500^3x11x100, 1600 procs (modeled)"),
    )
    t = {k: r.total_seconds for k, r in runs.items()}
    # QR-single outperforms TuckerMPI (Gram double) by ~50% (Sec. 4.5.3).
    assert t["Gram double"] / t["QR single"] > 1.25
    assert t["Gram single"] < t["QR single"]
