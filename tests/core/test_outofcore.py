"""Out-of-core tensor access and streaming ST-HOSVD tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import sthosvd, ooc_tensor_gram, ooc_tensor_lq
from repro.data import low_rank_tensor, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.errors import ConfigurationError, ShapeError
from repro.tensor import DenseTensor


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    X = low_rank_tensor((14, 12, 10, 8), (3, 4, 2, 3), rng=7, noise=1e-9)
    path = str(tmp_path_factory.mktemp("ooc") / "x.bin")
    save_raw(X, path)
    return X, OutOfCoreTensor(path, X.shape)


class TestOutOfCoreTensor:
    def test_roundtrip(self, spilled):
        X, ooc = spilled
        assert ooc.to_dense() == X

    def test_from_dense(self, tmp_path, rng):
        X = DenseTensor(rng.standard_normal((5, 6, 4)))
        ooc = OutOfCoreTensor.from_dense(X, str(tmp_path / "t.bin"))
        assert ooc.to_dense() == X

    def test_size_mismatch_detected(self, tmp_path):
        p = str(tmp_path / "bad.bin")
        np.zeros(10).tofile(p)
        with pytest.raises(ShapeError):
            OutOfCoreTensor(p, (3, 3))

    def test_norm_matches(self, spilled):
        X, ooc = spilled
        assert ooc.norm() == pytest.approx(X.norm(), rel=1e-12)

    @pytest.mark.parametrize("max_elements", [50, 333, 10**6])
    def test_chunks_reassemble_unfolding(self, spilled, max_elements):
        X, ooc = spilled
        for n in range(X.ndim):
            chunks = list(ooc.iter_unfolding_chunks(n, max_elements))
            assembled = np.concatenate(chunks, axis=1)
            np.testing.assert_array_equal(assembled, X.unfold(n))

    def test_last_mode_partial_block_chunks(self, spilled):
        """Mode N-1 is one huge block: chunking must slice within it."""
        X, ooc = spilled
        n = X.ndim - 1
        rows = X.shape[n]
        chunks = list(ooc.iter_unfolding_chunks(n, max_elements=rows * 7))
        assert len(chunks) > 1
        np.testing.assert_array_equal(np.concatenate(chunks, axis=1), X.unfold(n))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_ttm_truncate_to_file(self, spilled, tmp_path, n):
        X, ooc = spilled
        U = np.random.default_rng(n).standard_normal((X.shape[n], 3))
        out = ooc.ttm_truncate_to_file(U, n, str(tmp_path / f"y{n}.bin"),
                                       max_elements=200)
        from repro.tensor import ttm

        ref = ttm(X, U, n, transpose=True)
        assert out.to_dense().allclose(ref, rtol=1e-12, atol=1e-12)


class TestStreamedKernels:
    @pytest.mark.parametrize("max_elements", [64, 500, 10**6])
    def test_gram_matches_memory(self, spilled, max_elements):
        X, ooc = spilled
        from repro.linalg import tensor_gram

        for n in range(X.ndim):
            G = ooc_tensor_gram(ooc, n, max_elements=max_elements)
            np.testing.assert_allclose(G, tensor_gram(X, n), atol=1e-10)

    @pytest.mark.parametrize("max_elements", [64, 500, 10**6])
    def test_lq_matches_memory(self, spilled, max_elements):
        X, ooc = spilled
        for n in range(X.ndim):
            L = ooc_tensor_lq(ooc, n, max_elements=max_elements)
            Y = X.unfold(n)
            np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-9)


class TestStreamedSthosvd:
    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_matches_in_memory(self, spilled, method):
        X, ooc = spilled
        mem = sthosvd(X, tol=1e-6, method=method)
        res = sthosvd(ooc, tol=1e-6, method=method, max_elements=300)
        assert res.ranks == mem.ranks
        assert res.tucker.rel_error(X) <= 1.2e-6

    def test_fixed_ranks_and_order(self, spilled):
        X, ooc = spilled
        res = sthosvd(ooc, ranks=(2, 3, 2, 2), mode_order="backward",
                      max_elements=128)
        assert res.ranks == (2, 3, 2, 2)
        assert res.mode_order == (3, 2, 1, 0)

    def test_scratch_files_cleaned(self, spilled, tmp_path):
        """A caller's ``workdir`` is empty once the core is in memory, with
        or without checkpoints (the last mode's file used to stay)."""
        X, ooc = spilled
        work = str(tmp_path / "work")
        os.makedirs(work)
        for checkpoint_dir in (None, str(tmp_path / "ckpt")):
            sthosvd(ooc, tol=1e-4, workdir=work, max_elements=256,
                    checkpoint_dir=checkpoint_dir)
            assert os.listdir(work) == []

    def test_validation(self, spilled):
        X, ooc = spilled
        with pytest.raises(ConfigurationError):
            sthosvd(ooc, tol=0.1, ranks=(1, 1, 1, 1))
        with pytest.raises(ConfigurationError):
            sthosvd(ooc, tol=0.1, method="randomized")
        with pytest.raises(ConfigurationError):
            sthosvd(ooc, ranks=(99, 1, 1, 1))


class TestProgressCallback:
    def test_called_once_per_mode(self, spilled):
        X, ooc = spilled
        events = []
        sthosvd(ooc, tol=1e-4, progress=events.append)
        assert len(events) == X.ndim
        assert [e["step"] for e in events] == list(range(1, X.ndim + 1))
        assert all(e["total_steps"] == X.ndim for e in events)
        assert [e["mode"] for e in events] == list(range(X.ndim))
        # One event shape on every driver that has progress=.
        for e in events:
            assert set(e) == {"step", "total_steps", "mode", "rank", "ranks",
                              "seconds", "elapsed"}
            assert e["rank"] >= 1 and e["rank"] == e["ranks"][e["mode"]]
            assert 0.0 < e["seconds"] <= e["elapsed"]
        # seconds is per mode, elapsed runs since the start.
        assert [e["elapsed"] for e in events] == sorted(e["elapsed"] for e in events)
        assert events[-1]["elapsed"] >= sum(e["seconds"] for e in events) - 1e-6
