"""Future-work extensions (paper Sec. 5) — comparison benches.

The paper's conclusion names three follow-ups; each is compared here
against the paper's own methods:

1. **Randomized SVD** as the loose-tolerance competitor ("randomized and
   iterative algorithms are likely to be competitive and should be
   compared against" Gram-single).
2. **The SVD of the triangular factor**, computed redundantly on every
   rank — the stated bottleneck for modes of dimension >= ~10,000.
   LAPACK's ``gesvd`` is timed against sequential one-sided Jacobi,
   the parallel guard's fallback solver.
3. **Mixed precision within Gram-SVD**: float32 data, float64
   accumulation — Gram's cost with (nearly) QR-single's accuracy floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import (
    geometric_spectrum,
    low_rank_tensor,
    matrix_with_spectrum,
    tensor_with_mode_spectra,
)
from repro.linalg import gram_svd, jacobi_left_svd, left_svd_of_triangle
from repro.util import format_table


# ---------------------------------------------------------------------------
# 1. Randomized SVD vs Gram-single at loose tolerances
# ---------------------------------------------------------------------------
class TestRandomizedComparison:
    # Randomized pays O(mn(r+p)) against Gram's O(m^2 n): it wins when
    # the sketch width r+p is well below the mode dimension, so the
    # comparison uses a large leading mode and a thin sketch.
    SHAPE = (96, 44, 40)
    RANKS = (6, 6, 6)
    SKETCH = {"oversample": 4, "power_iters": 0}

    @pytest.fixture(scope="class")
    def tensor(self):
        spectra = [geometric_spectrum(s, 1.0, 1e-9) for s in self.SHAPE]
        return tensor_with_mode_spectra(self.SHAPE, spectra, rng=21)

    @pytest.mark.parametrize("method", ["gram", "qr", "randomized"])
    def test_bench_methods(self, benchmark, tensor, method):
        Xf = tensor.astype(np.float32)
        opts = self.SKETCH if method == "randomized" else None
        benchmark.pedantic(
            lambda: sthosvd(Xf, ranks=self.RANKS, method=method, svd_options=opts),
            rounds=2, iterations=1,
        )

    def test_report_randomized(self, benchmark, tensor, write_report):
        Xf = tensor.astype(np.float32)

        def compute():
            rows = []
            for method in ("gram", "qr", "randomized"):
                opts = self.SKETCH if method == "randomized" else None
                res = sthosvd(Xf, ranks=self.RANKS, method=method, svd_options=opts)
                rows.append(
                    [method, res.flops.total / 1e6,
                     res.tucker.rel_error(tensor)]
                )
            return rows

        rows = benchmark.pedantic(compute, rounds=1, iterations=1)
        write_report(
            "ext_randomized_comparison",
            format_table(
                ["method", "Mflop", "rel error vs f64 data"],
                rows,
                title=f"Loose-tolerance comparison at fixed ranks {self.RANKS} (f32)",
            ),
        )
        flops = {r[0]: r[1] for r in rows}
        errs = {r[0]: r[2] for r in rows}
        # Randomized does the least work at low target rank...
        assert flops["randomized"] < flops["gram"] < flops["qr"]
        # ...and matches the error at this (loose) accuracy regime.
        assert errs["randomized"] < 3 * errs["qr"]


# ---------------------------------------------------------------------------
# 2. SVD of the triangular factor
# ---------------------------------------------------------------------------
class TestTriangleSvd:
    N = 120

    @pytest.fixture(scope="class")
    def triangle(self):
        rng = np.random.default_rng(9)
        return np.tril(rng.standard_normal((self.N, self.N)))

    def test_bench_sequential_gesvd(self, benchmark, triangle):
        benchmark(lambda: left_svd_of_triangle(triangle))

    def test_bench_sequential_jacobi(self, benchmark, triangle):
        benchmark.pedantic(lambda: jacobi_left_svd(triangle), rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# 3. Mixed-precision Gram
# ---------------------------------------------------------------------------
class TestMixedGram:
    @pytest.fixture(scope="class")
    def decaying(self):
        shape = (40, 36, 32)
        spectra = [geometric_spectrum(s, 1.0, 1e-10) for s in shape]
        return tensor_with_mode_spectra(shape, spectra, rng=22)

    @pytest.mark.parametrize("method", ["gram", "gram-mixed", "qr"])
    def test_bench_variants(self, benchmark, decaying, method):
        Xf = decaying.astype(np.float32)
        benchmark.pedantic(
            lambda: sthosvd(Xf, tol=1e-4, method=method), rounds=2, iterations=1
        )

    def test_report_mixed_gram(self, benchmark, decaying, write_report):
        Xf = decaying.astype(np.float32)

        def compute():
            rows = []
            for method in ("gram", "gram-mixed", "qr"):
                res = sthosvd(Xf, tol=1e-4, method=method)
                rows.append(
                    [method, str(res.ranks), res.tucker.compression_ratio(),
                     res.tucker.rel_error(decaying)]
                )
            return rows

        rows = benchmark.pedantic(compute, rounds=1, iterations=1)
        write_report(
            "ext_mixed_gram",
            format_table(
                ["method (f32, tol 1e-4)", "ranks", "compression", "rel error"],
                rows,
                title="Mixed-precision Gram restores f32 truncation",
            ),
        )
        by = {r[0]: r for r in rows}
        # Plain Gram-single fails; mixed matches the QR-single result.
        assert by["gram"][2] < 2.0
        assert by["gram-mixed"][1] == by["qr"][1]
        assert by["gram-mixed"][3] <= 2e-4

    def test_matrix_floor_improvement(self, benchmark, write_report):
        """Fig. 1-style check: mixed Gram resolves ~eps_single, plain
        Gram only sqrt(eps_single)."""
        true = geometric_spectrum(60, 1.0, 1e-12)
        A = matrix_with_spectrum(60, 60, true, rng=13).astype(np.float32)

        from repro.linalg.gram import gram_matrix
        from repro.linalg.svd import svd_from_gram

        def compute():
            _, s_plain = gram_svd(A)
            G = gram_matrix(A, accumulate="double")
            _, s_mixed = svd_from_gram(G)
            return np.asarray(s_plain, dtype=np.float64), np.asarray(s_mixed)

        s_plain, s_mixed = benchmark.pedantic(compute, rounds=1, iterations=1)

        def floor(c):
            bad = np.nonzero(np.abs(np.log10(np.maximum(c, 1e-300)) - np.log10(true)) > 1.0)[0]
            return true[bad[0]] if bad.size else true[-1]

        f_plain, f_mixed = floor(s_plain), floor(s_mixed)
        write_report(
            "ext_mixed_gram_floor",
            f"plain Gram f32 floor: {f_plain:.2e}\nmixed Gram floor:    {f_mixed:.2e}",
        )
        assert f_mixed < f_plain / 10
