"""Tests for the geqr/gelq driver routines and backend agreement."""

from __future__ import annotations

import sys

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
        """Runs narrower than the matrix is tall fold like any other; the
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

    def test_fewer_columns_than_rows_is_a_trapezoid(self, rng):
        A = rng.standard_normal((9, 5))
        for runs in ([A[None]], [A[None, :, :2], A[None, :, 2:]]):
            L = flat_tree_lq("gelq", iter(runs), 9, np.float64)
            assert L.shape == (9, 5) and L.flags.c_contiguous
            np.testing.assert_array_equal(np.triu(L, 1), 0)
            np.testing.assert_allclose(L @ L.T, A @ A.T, atol=1e-12)

    def test_zero_columns(self):
        for runs in ([], [np.zeros((1, 4, 0))], [np.zeros((0, 4, 3))]):
            L = flat_tree_lq("gelq", iter(runs), 4, np.float64)
            assert L.shape == (4, 0) and L.dtype == np.float64

    def test_out_of_core_runs_narrower_than_rows(self, tmp_path, rng):
        """``max_elements=500`` streams mode 1's 30 rows 12 columns at a
        time; the LQ agrees with the Householder reference."""
        from repro.core import ooc_tensor_lq
        from repro.data.outofcore import OutOfCoreTensor
        from repro.tensor import DenseTensor

        X = DenseTensor(rng.standard_normal((6, 30, 8)))
        ooc = OutOfCoreTensor.from_dense(X, str(tmp_path / "x.bin"))
        widths = {c.shape[1] for c in ooc.iter_unfolding_chunks(1, 500)}
        assert max(widths) < 30
        L = ooc_tensor_lq(ooc, 1, max_elements=500)
        runs = (c[None] for c in ooc.iter_unfolding_chunks(1, 500))
        ref = flat_tree_lq("gelq", runs, 30, np.float64, backend="householder")
        np.testing.assert_allclose(L, ref, atol=1e-11)
        Y = X.unfold(1)
        np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    @pytest.mark.parametrize("dtype,prefix", [(np.float32, "s"), (np.float64, "d")])
    def test_every_run_is_one_tpqrt_call(self, rng, monkeypatch, dtype, prefix):
        """No other LAPACK routine factors a run: ``geqrf`` is not even bound."""
        from repro.linalg import _capi, tensor_lq
        from repro.tensor import DenseTensor

        assert not [name for name in _capi.ROUTINES if "geqrf" in name]
        calls = []
        for name, fn in list(_capi.ROUTINES.items()):
            monkeypatch.setitem(_capi.ROUTINES, name,
                                lambda *a, _n=name, _f=fn: calls.append(_n) or _f(*a))
        A = rng.standard_normal((6, 40)).astype(dtype)
        runs = [A[None, :, :2], A[None, :, 2:9], A[None, :, 9:]]
        flat_tree_lq("gelq", iter(runs), 6, dtype)
        assert calls == [prefix + "tpqrt"] * 3
        monkeypatch.setattr(sys.modules["repro.linalg.qr"], "_CHUNK_COLS", 64)
        X = DenseTensor(rng.standard_normal((40, 3, 2, 50)).astype(dtype))
        for n in range(X.ndim):
            calls.clear()
            blocks = X.column_block_range(n, 0, X.num_column_blocks(n))
            tensor_lq(X, n)
            assert len(calls) > 1
            assert calls == [prefix + "tpqrt"] * len(list(block_runs(blocks)))

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

        monkeypatch.setitem(_capi.ROUTINES, "dtpqrt", bad)
        with pytest.raises(ReproError, match="dtpqrt failed with info=-2"):
            gelq(rng.standard_normal((3, 8)))
