"""Tests for the geqr/gelq driver routines and backend agreement."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.instrument import FlopCounter
from repro.linalg import block_runs, flat_tree_lq, geqr, gelq


class TestGeqr:
    @pytest.mark.parametrize("backend", ["lapack", "householder"])
    @pytest.mark.parametrize("m,n", [(12, 5), (5, 5), (5, 12)])
    def test_gram_identity(self, rng, backend, m, n):
        A = rng.standard_normal((m, n))
        R = geqr(A, backend=backend)
        assert R.shape == (min(m, n), n)
        np.testing.assert_allclose(R.T @ R, A.T @ A, atol=1e-10)

    def test_backends_agree_up_to_signs(self, rng):
        A = rng.standard_normal((10, 4))
        R1 = geqr(A, backend="lapack")
        R2 = geqr(A, backend="householder")
        np.testing.assert_allclose(np.abs(R1), np.abs(R2), atol=1e-10)

    def test_float32(self, rng):
        A = rng.standard_normal((20, 4)).astype(np.float32)
        R = geqr(A)
        assert R.dtype == np.float32

    def test_counter(self, rng):
        c = FlopCounter()
        geqr(rng.standard_normal((10, 4)), counter=c)
        assert c.total > 0

    def test_bad_backend(self, rng):
        with pytest.raises(ConfigurationError):
            geqr(rng.standard_normal((3, 3)), backend="cuda")

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            geqr(np.ones(4))


class TestGelq:
    @pytest.mark.parametrize("backend", ["lapack", "householder"])
    @pytest.mark.parametrize("m,n", [(4, 15), (5, 5), (9, 4)])
    def test_gram_identity(self, rng, backend, m, n):
        A = rng.standard_normal((m, n))
        L = gelq(A, backend=backend)
        assert L.shape == (m, min(m, n))
        np.testing.assert_allclose(L @ L.T, A @ A.T, atol=1e-10)

    def test_lower_triangular(self, rng):
        L = gelq(rng.standard_normal((5, 20)))
        np.testing.assert_array_equal(np.triu(L, 1), 0)

    def test_on_transposed_view(self, rng):
        """The drivers must accept non-contiguous (transposed) views."""
        A = rng.standard_normal((30, 4))
        L = gelq(A.T)
        np.testing.assert_allclose(L @ L.T, A.T @ A, atol=1e-10)

    def test_singular_values_preserved(self, rng):
        A = rng.standard_normal((6, 40))
        L = gelq(A)
        np.testing.assert_allclose(
            np.linalg.svd(L, compute_uv=False),
            np.linalg.svd(A, compute_uv=False),
            atol=1e-10,
        )


class TestFlatTree:
    """`flat_tree_lq` is the one place a chunk is folded into a triangle."""

    @given(
        rows=st.integers(1, 9),
        widths=st.lists(st.integers(1, 14), min_size=0, max_size=7),
        dtype=st.sampled_from([np.float32, np.float64]),
        backend=st.sampled_from(["lapack", "householder"]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_chunking(self, rows, widths, dtype, backend, seed):
        """Leading runs narrower than the matrix is tall are merged; the
        result does not depend on how the columns arrive."""
        A = np.random.default_rng(seed).standard_normal((rows, sum(widths))).astype(dtype)
        keep = A.copy()
        edges = np.cumsum([0] + widths)
        runs = [A[None, :, a:b] for a, b in zip(edges[:-1], edges[1:])]
        L = flat_tree_lq("gelq", iter(runs), rows, dtype, backend=backend)
        assert L.shape == (rows, min(rows, A.shape[1])) and L.dtype == dtype
        np.testing.assert_array_equal(np.triu(L, 1), 0)
        L64, A64 = L.astype(np.float64), A.astype(np.float64)
        atol = 200 * np.finfo(dtype).eps * max(1.0, float((A64 * A64).sum()))
        np.testing.assert_allclose(L64 @ L64.T, A64 @ A64.T, atol=atol)
        np.testing.assert_array_equal(A, keep)

    def test_multi_block_runs(self, rng):
        """A run of k row-major blocks is k*bcols unfolding columns."""
        blocks = rng.standard_normal((7, 4, 3))  # 7 blocks of 4 x 3
        Y = np.concatenate(list(blocks), axis=1)
        L = flat_tree_lq("gelq", [blocks[:3], blocks[3:4], blocks[4:]], 4, np.float64)
        np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-12)

    def test_block_runs_cover_every_column_once(self, rng):
        blocks = rng.standard_normal((5, 3, 1000))
        runs = list(block_runs(blocks))
        assert all(r.base is not None for r in runs)  # views, no copies
        assert sum(r.shape[0] * r.shape[2] for r in runs) == 5000
        assert runs[0].shape[0] * runs[0].shape[2] >= 3
        wide = rng.standard_normal((1, 3, 5000))
        assert [r.shape[2] for r in block_runs(wide)] == [2048, 2048, 904]
        narrow = rng.standard_normal((5000, 3, 1))
        assert [r.shape[0] for r in block_runs(narrow)] == [2048, 2048, 904]

    def test_wide_matrix_streams_in_chunks(self, rng):
        """gelq/geqr beyond one chunk, on every input layout."""
        A = rng.standard_normal((6, 5000))
        for M in (A, np.asfortranarray(A), A[:, ::-1]):
            L = gelq(M)
            np.testing.assert_allclose(L @ L.T, A @ A.T, atol=1e-8)
            R = geqr(M.T)
            np.testing.assert_allclose(R.T @ R, A @ A.T, atol=1e-8)

    def test_integer_input_promoted(self):
        L = gelq(np.arange(12).reshape(3, 4))
        assert L.dtype == np.float64 and L.shape == (3, 3)

    def test_empty(self):
        assert gelq(np.zeros((4, 0))).shape == (4, 0)
        assert geqr(np.zeros((0, 4))).shape == (0, 4)

    def test_lapack_failure_raises(self, rng, monkeypatch):
        from repro.errors import ReproError
        from repro.linalg import _capi

        def bad(*args):  # the C routine's last argument is ``int *info``
            args[-1]._obj.value = -2

        monkeypatch.setitem(_capi.ROUTINES, "dgeqrf", bad)
        with pytest.raises(ReproError, match="dgeqrf failed with info=-2"):
            gelq(rng.standard_normal((3, 8)))
