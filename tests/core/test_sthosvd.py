"""Sequential ST-HOSVD behaviour tests, including the paper's guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hooi, sthosvd
from repro.data import (
    geometric_spectrum, low_rank_tensor, save_raw, tensor_with_mode_spectra)
from repro.data.outofcore import OutOfCoreTensor
from repro.errors import ConfigurationError
from repro.obs import Tracer, activate, deactivate
from repro.tensor import DenseTensor


def _on_disk(X, tmp_path):
    path = str(tmp_path / "x.bin")
    save_raw(X, path)
    return OutOfCoreTensor(path, X.shape)


@pytest.fixture(scope="module")
def lowrank():
    return low_rank_tensor((10, 12, 8, 9), (3, 4, 2, 3), rng=1, noise=1e-10)


class TestRankRecovery:
    @pytest.mark.parametrize("method", ["qr", "gram"])
    @pytest.mark.parametrize("order", ["forward", "backward"])
    def test_recovers_exact_ranks(self, lowrank, method, order):
        res = sthosvd(lowrank, tol=1e-6, method=method, mode_order=order)
        assert res.ranks == (3, 4, 2, 3)
        assert res.tucker.rel_error(lowrank) <= 1e-6

    def test_fixed_ranks(self, lowrank):
        res = sthosvd(lowrank, ranks=(2, 2, 2, 2))
        assert res.ranks == (2, 2, 2, 2)

    def test_error_guarantee_random_data(self, rng):
        """For incompressible data the tolerance must still be honoured."""
        X = DenseTensor(rng.standard_normal((8, 9, 7)))
        for tol in (0.5, 0.1):
            res = sthosvd(X, tol=tol, method="qr")
            assert res.tucker.rel_error(X) <= tol

    def test_estimated_error_close_to_actual(self, lowrank):
        res = sthosvd(lowrank, tol=1e-4, method="qr")
        actual = res.tucker.rel_error(lowrank)
        assert res.estimated_rel_error() == pytest.approx(actual, rel=0.5, abs=1e-9)

    def test_no_truncation_run(self, lowrank):
        res = sthosvd(lowrank, method="qr")
        assert res.ranks == lowrank.shape
        assert res.tucker.rel_error(lowrank) < 1e-12
        assert set(res.sigmas) == {0, 1, 2, 3}


class TestFactorProperties:
    def test_factors_orthonormal(self, lowrank):
        res = sthosvd(lowrank, tol=1e-6)
        for U in res.tucker.factors:
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)

    def test_core_all_orthogonality(self, lowrank):
        """HOSVD property: core slices are mutually orthogonal per mode."""
        res = sthosvd(lowrank, tol=1e-8)
        G = res.tucker.core
        for n in range(G.ndim):
            Gn = G.unfold(n)
            GG = Gn @ Gn.T
            off = GG - np.diag(np.diag(GG))
            assert np.abs(off).max() < 1e-8 * np.abs(GG).max()

    def test_core_norm_preserved_without_truncation(self, lowrank):
        res = sthosvd(lowrank)
        assert res.tucker.core.norm() == pytest.approx(lowrank.norm(), rel=1e-10)


class TestConfiguration:
    def test_tol_and_ranks_mutually_exclusive(self, lowrank):
        with pytest.raises(ConfigurationError):
            sthosvd(lowrank, tol=0.1, ranks=(1, 1, 1, 1))

    def test_bad_method(self, lowrank):
        with pytest.raises(ConfigurationError):
            sthosvd(lowrank, tol=0.1, method="randomized")

    def test_bad_rank_count(self, lowrank):
        with pytest.raises(ConfigurationError):
            sthosvd(lowrank, ranks=(1, 1))

    def test_bad_rank_value(self, lowrank):
        with pytest.raises(ConfigurationError):
            sthosvd(lowrank, ranks=(99, 1, 1, 1))

    def test_precision_override(self, lowrank):
        res = sthosvd(lowrank, tol=1e-3, precision="single")
        assert res.tucker.core.dtype == np.float32
        assert str(res.precision) == "single"

    def test_mode_order_recorded(self, lowrank):
        res = sthosvd(lowrank, tol=1e-3, mode_order="backward")
        assert res.mode_order == (3, 2, 1, 0)

    def test_accepts_raw_array(self, rng):
        res = sthosvd(rng.standard_normal((5, 6, 4)), tol=0.5)
        assert res.tucker.ndim == 3


class TestInstrumentation:
    def test_flops_counted_by_phase(self, lowrank):
        res = sthosvd(lowrank, tol=1e-6, method="qr")
        assert res.flops.phase_total("lq") > 0
        assert res.flops.phase_total("svd") > 0
        assert res.flops.phase_total("ttm") > 0
        assert res.flops.phase_total("gram") == 0

    def test_gram_phases(self, lowrank):
        res = sthosvd(lowrank, tol=1e-6, method="gram")
        assert res.flops.phase_total("gram") > 0
        assert res.flops.phase_total("evd") > 0
        assert res.flops.phase_total("lq") == 0

    def test_qr_costs_about_twice_gram(self, rng):
        """Sec. 3.5: QR-SVD performs ~2x the flops of Gram-SVD."""
        X = DenseTensor(rng.standard_normal((20, 30, 25)))
        fq = sthosvd(X, ranks=(5, 5, 5), method="qr").flops
        fg = sthosvd(X, ranks=(5, 5, 5), method="gram").flops
        ratio = fq.phase_total("lq") / fg.phase_total("gram")
        assert 1.5 < ratio < 2.6

    @pytest.mark.parametrize("run, phases", [
        (lambda X, tmp: sthosvd(X, tol=1e-6, method="qr"), ("lq", "svd")),
        (lambda X, tmp: sthosvd(X, tol=1e-6, method="gram"), ("gram", "evd")),
        (lambda X, tmp: sthosvd(X, tol=1e-6, method="gram-mixed",
                                precision="single"), ("gram", "evd")),
        (lambda X, tmp: sthosvd(X, ranks=(3, 4, 2, 3), method="randomized"),
         ("svd",)),
        (lambda X, tmp: sthosvd(_on_disk(X, tmp), tol=1e-6, method="qr"),
         ("lq", "svd")),
        (lambda X, tmp: sthosvd(_on_disk(X, tmp), tol=1e-6, method="gram"),
         ("gram", "evd")),
        (lambda X, tmp: hooi(X, (3, 4, 2, 3), max_iters=2), ("lq", "svd")),
    ], ids=["qr", "gram", "gram-mixed", "randomized", "ooc-qr", "ooc-gram",
            "hooi"])
    def test_every_phase_of_every_mode_is_traced(self, lowrank, tmp_path,
                                                 run, phases):
        """The time breakdown is the Tracer's: whatever the tensor kind or
        method, each mode leaves a top-level span of every phase it ran,
        its reduction, its small decomposition and its truncation."""
        tracer = Tracer()
        activate(tracer)
        try:
            run(lowrank, tmp_path)
        finally:
            deactivate()
        seen = {(s.phase, s.mode) for s in tracer.spans
                if s.phase is not None and not s.self_nested}
        for n in range(lowrank.ndim):
            for phase in (*phases, "ttm"):
                assert (phase, n) in seen, f"no {phase} span for mode {n}"


class TestPrecisionBehaviour:
    """The paper's central claims about method x precision."""

    @pytest.fixture(scope="class")
    def decaying(self):
        shape = (24, 20, 22)
        spectra = [geometric_spectrum(s, 1.0, 1e-10) for s in shape]
        return tensor_with_mode_spectra(shape, spectra, rng=3)

    def test_gram_single_fails_tight_tolerance(self, decaying):
        """At 1e-4 < sqrt(eps_s), Gram-single cannot truncate (Tab. 2)."""
        Xf = decaying.astype(np.float32)
        res = sthosvd(Xf, tol=1e-4, method="gram")
        # Essentially no compression: ranks stay near full because the
        # sub-floor singular values come out as un-discardable noise.
        assert res.tucker.compression_ratio() < 2.0
        qr = sthosvd(Xf, tol=1e-4, method="qr")
        assert qr.tucker.compression_ratio() > 5 * res.tucker.compression_ratio()

    def test_qr_single_succeeds_at_same_tolerance(self, decaying):
        Xf = decaying.astype(np.float32)
        res = sthosvd(Xf, tol=1e-4, method="qr")
        assert res.tucker.compression_ratio() > 1.5
        assert res.tucker.rel_error(decaying) <= 2e-4

    def test_all_variants_agree_at_loose_tolerance(self, decaying):
        """At 1e-2 every variant compresses identically (Tab. 2 row 1)."""
        ranks = set()
        for method in ("qr", "gram"):
            for prec in ("single", "double"):
                res = sthosvd(decaying, tol=1e-2, method=method, precision=prec)
                ranks.add(res.ranks)
                assert res.tucker.rel_error(decaying) <= 1e-2
        assert len(ranks) == 1

    def test_only_qr_double_reaches_1em8(self, decaying):
        res_qr = sthosvd(decaying, tol=1e-8, method="qr", precision="double")
        assert res_qr.tucker.rel_error(decaying) <= 1e-8
        res_gram = sthosvd(decaying, tol=1e-8, method="gram", precision="double")
        # Gram double's actual error exceeds the tolerance (noise floor).
        assert res_gram.tucker.rel_error(decaying) > 1e-9 or (
            res_gram.tucker.compression_ratio() <= res_qr.tucker.compression_ratio()
        )


@given(
    shape=st.lists(st.integers(3, 7), min_size=2, max_size=4).map(tuple),
    tol=st.sampled_from([0.5, 0.1, 0.01]),
    method=st.sampled_from(["qr", "gram"]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_tolerance_always_honoured_property(shape, tol, method, seed):
    """In double precision with tol >> eps, the error bound always holds."""
    rng = np.random.default_rng(seed)
    X = DenseTensor(rng.standard_normal(shape))
    res = sthosvd(X, tol=tol, method=method)
    assert res.tucker.rel_error(X) <= tol * (1 + 1e-8)
