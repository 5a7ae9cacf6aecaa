"""Working-precision handling of the out-of-core path (double file,
single pipeline — the paper's production configuration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import geometric_spectrum, save_raw, tensor_with_mode_spectra
from repro.data.outofcore import OutOfCoreTensor


@pytest.fixture(scope="module")
def double_file(tmp_path_factory):
    shape = (18, 16, 14)
    spectra = [geometric_spectrum(s, 1.0, 1e-9) for s in shape]
    X = tensor_with_mode_spectra(shape, spectra, rng=51)  # float64
    path = str(tmp_path_factory.mktemp("prec") / "x64.bin")
    save_raw(X, path)
    return X, path


class TestWorkDtype:
    def test_chunks_cast_to_single(self, double_file):
        X, path = double_file
        ooc = OutOfCoreTensor(path, X.shape, work_dtype="single")
        assert ooc.file_dtype == np.float64
        assert ooc.dtype == np.float32
        chunk = next(ooc.iter_unfolding_chunks(0))
        assert chunk.dtype == np.float32
        np.testing.assert_allclose(
            chunk, X.unfold(0)[:, : chunk.shape[1]], rtol=1e-6
        )

    def test_to_dense_casts(self, double_file):
        X, path = double_file
        ooc = OutOfCoreTensor(path, X.shape, work_dtype="single")
        dense = ooc.to_dense()
        assert dense.dtype == np.float32
        assert dense.allclose(X.astype(np.float32), rtol=0, atol=0)

    def test_ttm_output_in_work_precision(self, double_file, tmp_path):
        X, path = double_file
        ooc = OutOfCoreTensor(path, X.shape, work_dtype="single")
        U = np.random.default_rng(0).standard_normal((X.shape[0], 3))
        out = ooc.ttm_truncate_to_file(U, 0, str(tmp_path / "y.bin"))
        assert out.dtype == np.float32
        assert out.file_dtype == np.float32


class TestSinglePrecisionPipeline:
    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_matches_in_memory_single(self, double_file, method):
        """OOC with precision='single' == in-memory on the cast tensor."""
        X, path = double_file
        tol = 1e-3
        ooc_res = sthosvd(OutOfCoreTensor(path, X.shape), precision="single",
                          tol=tol, method=method, max_elements=400)
        mem_res = sthosvd(X.astype(np.float32), tol=tol, method=method)
        # Chunked float32 accumulation rounds differently from the
        # block-wise in-memory order, so a rank at the exact budget
        # boundary may flip by one (a Gram-in-single artifact).
        for a, b in zip(ooc_res.ranks, mem_res.ranks):
            assert abs(a - b) <= 1
        assert ooc_res.tucker.core.dtype == np.float32
        assert ooc_res.tucker.rel_error(X) <= tol * 1.05

    def test_gram_single_noise_floor_persists_out_of_core(self, double_file):
        """The sqrt(eps_s) failure mode is a property of the arithmetic,
        not the driver: it appears identically when streaming."""
        X, path = double_file
        res = sthosvd(OutOfCoreTensor(path, X.shape), precision="single",
                      tol=1e-4, method="gram")
        qr = sthosvd(OutOfCoreTensor(path, X.shape), precision="single",
                     tol=1e-4, method="qr")
        assert res.tucker.compression_ratio() < 0.5 * qr.tucker.compression_ratio()
