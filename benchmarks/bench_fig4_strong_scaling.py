"""Figure 4 + Table 1 — strong scaling across algorithms and precisions.

Paper setup: fixed 256^4 synthetic tensor compressed to a 32^4 core on
1 to 64 Andes nodes (32 to 2048 cores) with the Table 1 processor grids;
backward ordering for QR, forward for Gram.  Expected shapes:

* times decrease in the order QR-double > Gram-double > QR-single >
  Gram-single at every core count;
* all variants scale to 32+ nodes (monotone decreasing times);
* QR-single is consistently ~30% faster than Gram-double (TuckerMPI),
  growing with scale;
* the two achieve nearly the same accuracy.

Modeled-mode at paper scale; functional strong scaling on the threaded
runtime cross-checks the algorithm schedule at small P, and a functional
accuracy check confirms the "nearly the same accuracy" claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd, sthosvd_parallel
from repro.data import tensor_with_mode_spectra, geometric_spectrum
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import run_spmd
from repro.perf import (
    ANDES,
    STRONG_SCALING_GRIDS,
    scaling_table,
    simulate_sthosvd,
    strong_scaling_grid,
    variant_label,
)

from conftest import VARIANTS

SHAPE = (256,) * 4
RANKS = (32,) * 4
CORES = sorted(STRONG_SCALING_GRIDS)


def _strong_runs():
    runs = {}
    for method, prec in VARIANTS:
        for cores in CORES:
            runs[(cores, method, prec)] = simulate_sthosvd(
                SHAPE, RANKS, strong_scaling_grid(cores, method),
                method=method, precision=prec,
                mode_order="backward" if method == "qr" else "forward",
                machine=ANDES,
            )
    return runs


def test_report_fig4(write_report):
    runs = _strong_runs()
    series = {
        variant_label(m, p): [(c, runs[(c, m, p)].total_seconds) for c in CORES]
        for m, p in VARIANTS
    }
    txt = scaling_table(
        series, ylabel="s",
        title="Fig. 4: strong scaling 256^4 -> 32^4 (modeled, Andes, Table-1 grids)",
    )
    write_report("fig4_strong_scaling", txt)

    for c in CORES:
        t = {(m, p): runs[(c, m, p)].total_seconds for m, p in VARIANTS}
        assert t[("gram", "single")] < t[("qr", "single")] < t[("gram", "double")] < t[("qr", "double")]
        # QR-single vs TuckerMPI: consistently faster.
        assert t[("gram", "double")] / t[("qr", "single")] > 1.15
    # Scaling: monotone decreasing through 2048 cores for every variant.
    for m, p in VARIANTS:
        times = [runs[(c, m, p)].total_seconds for c in CORES]
        assert all(a > b for a, b in zip(times, times[1:]))
    # Speedup from 32 to 2048 cores is substantial (scales to 32+ nodes).
    for m, p in VARIANTS:
        assert runs[(32, m, p)].total_seconds / runs[(2048, m, p)].total_seconds > 8


GRIDS_FUNCTIONAL = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1)]


@pytest.fixture(scope="module")
def smallX():
    shape = (20, 20, 20, 20)
    spectra = [geometric_spectrum(s, 1.0, 1e-10) for s in shape]
    return tensor_with_mode_spectra(shape, spectra, rng=4)


@pytest.mark.parametrize("grid", GRIDS_FUNCTIONAL)
def test_functional_strong_scaling(smallX, grid):
    """Strong scaling of the threaded runtime on a fixed tensor: every
    grid reaches the same ranks."""

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid))
        dt = DistributedTensor.from_full(comms, smallX.data)
        return sthosvd_parallel(dt, ranks=(4, 4, 4, 4), method="qr").ranks

    res = run_spmd(prog, int(np.prod(grid)))
    assert res[0] == (4, 4, 4, 4)


def test_qr_single_accuracy_matches_gram_double(smallX, write_report):
    """Sec. 4.4: 'the two algorithms achieve nearly the same accuracy'."""

    def compute():
        out = {}
        for method, prec in (("qr", "single"), ("gram", "double")):
            res = sthosvd(smallX, ranks=(4, 4, 4, 4), method=method, precision=prec)
            out[variant_label(method, prec)] = res.tucker.rel_error(smallX)
        return out

    errs = compute()
    write_report(
        "fig4_accuracy_check",
        "\n".join(f"{k}: rel error {v:.3e}" for k, v in errs.items()),
    )
    a, b = errs["QR single"], errs["Gram double"]
    assert abs(np.log10(a) - np.log10(b)) < 1.0  # same order of magnitude
