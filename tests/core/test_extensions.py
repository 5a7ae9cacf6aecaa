"""Tests for the future-work method extensions in sthosvd."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import geometric_spectrum, low_rank_tensor, tensor_with_mode_spectra
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def decaying():
    shape = (22, 18, 20)
    spectra = [geometric_spectrum(s, 1.0, 1e-10) for s in shape]
    return tensor_with_mode_spectra(shape, spectra, rng=8)


class TestGramMixed:
    def test_recovers_single_precision_failure(self, decaying):
        """The paper's future-work hypothesis: float64 accumulation inside
        Gram restores truncation ability at tolerances where plain
        float32 Gram fails."""
        Xf = decaying.astype(np.float32)
        plain = sthosvd(Xf, tol=1e-4, method="gram")
        mixed = sthosvd(Xf, tol=1e-4, method="gram-mixed")
        qr = sthosvd(Xf, tol=1e-4, method="qr")
        # plain gram-single cannot truncate; mixed matches QR-single.
        assert plain.tucker.compression_ratio() < 2.0
        assert mixed.ranks == qr.ranks
        assert mixed.tucker.rel_error(decaying) <= 2e-4

    def test_noop_for_double_input(self, decaying):
        a = sthosvd(decaying, tol=1e-4, method="gram")
        b = sthosvd(decaying, tol=1e-4, method="gram-mixed")
        assert a.ranks == b.ranks

    def test_output_precision_is_single(self, decaying):
        Xf = decaying.astype(np.float32)
        res = sthosvd(Xf, tol=1e-3, method="gram-mixed")
        assert res.tucker.core.dtype == np.float32

    def test_gram_flops_not_qr_flops(self, decaying):
        """Mixed Gram keeps the Gram flop count (half of QR's)."""
        Xf = decaying.astype(np.float32)
        mixed = sthosvd(Xf, ranks=(4, 4, 4), method="gram-mixed")
        qr = sthosvd(Xf, ranks=(4, 4, 4), method="qr")
        assert mixed.flops.phase_total("gram") < 0.7 * qr.flops.phase_total("lq")


class TestRandomizedMethod:
    def test_matches_qr_on_low_rank(self):
        X = low_rank_tensor((18, 16, 14), (3, 4, 2), rng=5, noise=1e-11)
        rand = sthosvd(X, ranks=(3, 4, 2), method="randomized")
        qr = sthosvd(X, ranks=(3, 4, 2), method="qr")
        assert rand.tucker.rel_error(X) < 1e-8
        assert qr.tucker.rel_error(X) < 1e-8

    def test_cheaper_than_both_at_low_rank(self):
        X = low_rank_tensor((60, 50, 40), (3, 3, 3), rng=6, noise=1e-10)
        opts = {"oversample": 5, "power_iters": 0}
        rand = sthosvd(X, ranks=(3, 3, 3), method="randomized", svd_options=opts)
        gram = sthosvd(X, ranks=(3, 3, 3), method="gram")
        qr = sthosvd(X, ranks=(3, 3, 3), method="qr")
        # Sketch cost O(mn(r+p)) vs Gram's O(m^2 n): fewer flops when
        # r + oversample << m.
        assert rand.flops.total < gram.flops.total
        assert rand.flops.total < qr.flops.total
        assert rand.tucker.rel_error(X) < 1e-6

    def test_requires_ranks(self, decaying):
        with pytest.raises(ConfigurationError):
            sthosvd(decaying, tol=1e-3, method="randomized")

    def test_sigma_recorded(self):
        X = low_rank_tensor((10, 10, 10), (2, 2, 2), rng=7)
        res = sthosvd(X, ranks=(2, 2, 2), method="randomized")
        assert all(len(s) >= 2 for s in res.sigmas.values())

    @pytest.mark.parametrize("method", ["qr", "gram", "gram-mixed"])
    def test_svd_options_refused_by_other_methods(self, method):
        """Only the sketch reads ``svd_options``; any other method refuses
        them instead of ignoring them."""
        X = low_rank_tensor((8, 8, 8), (2, 2, 2), rng=1)
        with pytest.raises(ConfigurationError, match="svd_options"):
            sthosvd(X, ranks=(2, 2, 2), method=method,
                    svd_options={"oversample": 5})
