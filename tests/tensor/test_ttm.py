"""Tests for the TTM kernels against the defining identity Y_(n) = U X_(n)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.tensor import DenseTensor, multi_ttm, ttm, ttm_flops


class TestTtm:
    def test_definition_all_modes(self, tensor4, rng):
        for n in range(4):
            U = rng.standard_normal((3, tensor4.shape[n]))
            Y = ttm(tensor4, U, n)
            np.testing.assert_allclose(Y.unfold(n), U @ tensor4.unfold(n), rtol=1e-12)
            assert Y.shape[n] == 3

    def test_transpose_flag(self, tensor4, rng):
        U = rng.standard_normal((tensor4.shape[2], 4))
        Y = ttm(tensor4, U, 2, transpose=True)
        np.testing.assert_allclose(Y.unfold(2), U.T @ tensor4.unfold(2), rtol=1e-12)

    def test_identity_is_noop(self, tensor4):
        U = np.eye(tensor4.shape[1])
        Y = ttm(tensor4, U, 1)
        assert Y.allclose(tensor4, rtol=1e-14, atol=0)

    def test_dtype_follows_tensor(self, tensor4_f32, rng):
        U = rng.standard_normal((2, tensor4_f32.shape[0]))  # float64 factor
        Y = ttm(tensor4_f32, U, 0)
        assert Y.dtype == np.float32

    def test_dimension_mismatch(self, tensor4, rng):
        with pytest.raises(ShapeError):
            ttm(tensor4, rng.standard_normal((3, 99)), 0)

    def test_vector_factor_rejected(self, tensor4):
        with pytest.raises(ShapeError):
            ttm(tensor4, np.ones(tensor4.shape[0]), 0)

    def test_two_successive_ttms_compose(self, tensor3, rng):
        A = rng.standard_normal((2, tensor3.shape[0]))
        B = rng.standard_normal((3, tensor3.shape[2]))
        Y1 = ttm(ttm(tensor3, A, 0), B, 2)
        Y2 = ttm(ttm(tensor3, B, 2), A, 0)
        assert Y1.allclose(Y2, rtol=1e-12, atol=1e-12)


class TestEveryOutputElementIsWritten:
    """The output is allocated uninitialised: whatever the products do not
    write would be garbage (or, from a fresh mapping, zeros)."""

    def test_last_chunk_is_a_remainder(self, rng):
        # Modes 1 and 2 batch their 600000 / 200000 column blocks in chunks
        # of 524288 / 174762; mode 3 is one block, mode 0 one matmul.
        X = DenseTensor(rng.standard_normal((1, 2, 3, 200_000)) + 3.0)
        for n, sub in enumerate(["ka,abcd->kbcd", "kb,abcd->akcd",
                                 "kc,abcd->abkd", "kd,abcd->abck"]):
            U = rng.standard_normal((2, X.shape[n]))
            Y = ttm(X, U, n)
            assert Y.data.flags.f_contiguous
            np.testing.assert_allclose(
                Y.data, np.einsum(sub, U, X.data), rtol=1e-9, atol=1e-9)

    def test_zero_extent_modes(self, rng):
        X = DenseTensor(np.empty((3, 0, 4)))
        # Contracting the empty mode yields zeros, not whatever was there.
        for _ in range(3):
            Y = ttm(X, np.empty((5, 0)), 1)
            assert Y.shape == (3, 5, 4) and not Y.data.any()
        assert ttm(X, rng.standard_normal((2, 3)), 0).shape == (2, 0, 4)
        assert ttm(X, rng.standard_normal((4, 2)), 2, transpose=True).shape == (3, 0, 2)


class TestMultiTtm:
    def test_skips_none(self, tensor3, rng):
        A = rng.standard_normal((2, tensor3.shape[1]))
        Y = multi_ttm(tensor3, [None, A, None])
        assert Y.shape == (tensor3.shape[0], 2, tensor3.shape[2])

    def test_wrong_count(self, tensor3):
        with pytest.raises(ShapeError):
            multi_ttm(tensor3, [None, None])

    def test_orthogonal_projection_norm(self, tensor3, rng):
        # Projecting onto orthonormal bases in every mode cannot grow norm.
        mats = []
        for n, dim in enumerate(tensor3.shape):
            k = max(dim - 1, 1)
            Q = np.linalg.qr(rng.standard_normal((dim, k)))[0]
            mats.append(Q)
        core = multi_ttm(tensor3, mats, transpose=True)
        assert core.norm() <= tensor3.norm() * (1 + 1e-12)


class TestTtmFlops:
    def test_formula(self):
        # (5 x I_1) times unfolding of (3, 4, 6): 2*5*4*(3*6)
        assert ttm_flops((3, 4, 6), 1, 5) == 2 * 5 * 4 * 18


@given(
    shape=st.lists(st.integers(2, 5), min_size=2, max_size=4).map(tuple),
    out_dim=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_ttm_matches_tensordot_property(shape, out_dim, seed):
    rng = np.random.default_rng(seed)
    X = DenseTensor(rng.standard_normal(shape))
    for n in range(len(shape)):
        U = rng.standard_normal((out_dim, shape[n]))
        Y = ttm(X, U, n)
        ref = np.moveaxis(np.tensordot(U, X.data, axes=(1, n)), 0, n)
        np.testing.assert_allclose(Y.data, ref, rtol=1e-10, atol=1e-12)
