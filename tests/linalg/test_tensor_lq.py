"""Tests for the sequential TensorLQ (paper Alg. 2)."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.instrument import FlopCounter
from repro.tensor import DenseTensor
from repro.linalg import tensor_lq


class TestTensorLq:
    @pytest.mark.parametrize("backend", ["lapack", "householder"])
    def test_gram_identity_all_modes(self, tensor4, backend):
        for n in range(4):
            L = tensor_lq(tensor4, n, backend=backend)
            Y = tensor4.unfold(n)
            np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    def test_lower_triangular_square(self, tensor4):
        for n in range(4):
            L = tensor_lq(tensor4, n)
            rows = tensor4.shape[n]
            assert L.shape == (rows, rows)
            np.testing.assert_array_equal(np.triu(L, 1), 0)

    def test_singular_values_match_unfolding(self, tensor4):
        for n in range(4):
            L = tensor_lq(tensor4, n)
            np.testing.assert_allclose(
                np.linalg.svd(L, compute_uv=False),
                np.linalg.svd(tensor4.unfold(n), compute_uv=False),
                atol=1e-10,
            )

    def test_mode_out_of_range(self, tensor4):
        with pytest.raises(ShapeError):
            tensor_lq(tensor4, 4)

    def test_two_mode_tensor(self, rng):
        X = DenseTensor(rng.standard_normal((5, 30)))
        for n in range(2):
            L = tensor_lq(X, n)
            Y = X.unfold(n)
            np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    def test_tall_mode_needs_block_combining(self, rng):
        # Mode-1 blocks are (8 x 2): the first LQ must combine 4 blocks.
        X = DenseTensor(rng.standard_normal((2, 8, 12)))
        L = tensor_lq(X, 1)
        Y = X.unfold(1)
        np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    def test_degenerate_unfolding_taller_than_wide(self, rng):
        # Mode-1 unfolding is 10 x 6: fewer columns than rows overall.
        X = DenseTensor(rng.standard_normal((2, 10, 3)))
        L = tensor_lq(X, 1)
        Y = X.unfold(1)
        np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    def test_float32_pipeline(self, tensor4_f32):
        for n in range(4):
            L = tensor_lq(tensor4_f32, n)
            assert L.dtype == np.float32
            Y = tensor4_f32.unfold(n)
            np.testing.assert_allclose(
                L @ L.T, Y @ Y.T, rtol=2e-3, atol=2e-3
            )

    def test_input_not_mutated(self, tensor4):
        before = tensor4.copy()
        for n in range(4):
            tensor_lq(tensor4, n)
        assert tensor4 == before

    def test_counter_attributes_to_mode(self, tensor4):
        c = FlopCounter()
        tensor_lq(tensor4, 2, counter=c)
        assert c.total > 0
        assert sum(v for (ph, m), v in c.by_phase_mode.items() if m == 2) == c.total

    def test_accepts_raw_array(self, rng):
        arr = rng.standard_normal((4, 5, 6))
        L = tensor_lq(arr, 1)
        assert L.shape == (5, 5)


@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_tensor_lq_gram_property(shape, seed):
    rng = np.random.default_rng(seed)
    X = DenseTensor(rng.standard_normal(shape))
    for n in range(len(shape)):
        L = tensor_lq(X, n)
        Y = X.unfold(n)
        np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-8)


# ``repro.linalg.qr`` the module (``repro.linalg`` re-exports its functions).
QR = sys.modules["repro.linalg.qr"]


class TestStreamingLoop:
    """One flat-tree loop for every mode (``repro.linalg.qr.flat_tree_lq``)."""

    @given(
        shape=st.lists(st.integers(1, 7), min_size=2, max_size=4).map(tuple),
        width=st.integers(1, 12),
        dtype=st.sampled_from([np.float32, np.float64]),
        backend=st.sampled_from(["lapack", "householder"]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_chunk_width_every_mode(self, shape, width, dtype, backend, seed):
        """Run boundaries that split blocks unevenly, unfoldings taller
        than wide included: the Gram identity holds and the input is
        left untouched."""
        from unittest import mock

        rng = np.random.default_rng(seed)
        X = DenseTensor(rng.standard_normal(shape).astype(dtype))
        before = X.copy()
        atol = 200 * np.finfo(dtype).eps * max(1.0, X.norm() ** 2)
        with mock.patch.object(QR, "_CHUNK_COLS", width):
            for n in range(len(shape)):
                L = tensor_lq(X, n, backend=backend)
                Y = X.unfold(n).astype(np.float64)
                rows, cols = Y.shape
                assert L.shape == (rows, min(rows, cols))
                assert L.dtype == dtype and L.flags.c_contiguous
                np.testing.assert_array_equal(np.triu(L, 1), 0)
                L64 = L.astype(np.float64)
                np.testing.assert_allclose(L64 @ L64.T, Y @ Y.T, atol=atol)
        assert X == before

    def test_real_chunk_width_splits_blocks(self, rng):
        """At the shipped width: mode 0 takes many one-column blocks per
        run, the last mode slices its single block, a middle mode ends
        on a partial run."""
        X = DenseTensor(rng.standard_normal((5, 3, 900)))
        before = X.copy()
        for n in range(3):
            L = tensor_lq(X, n)
            Y = X.unfold(n)
            np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-9)
        assert X == before

    def test_backend_reaches_the_tree_steps(self, rng, monkeypatch):
        """``backend="householder"`` runs the Python ``tpqrt``, not LAPACK's."""
        from repro.linalg import _capi

        def no_lapack(*a, **k):
            raise AssertionError("LAPACK reached under backend='householder'")

        for routine in _capi.ROUTINES:
            monkeypatch.setitem(_capi.ROUTINES, routine, no_lapack)
        monkeypatch.setattr(QR, "_CHUNK_COLS", 8)
        X = DenseTensor(rng.standard_normal((4, 5, 6)))
        for n in range(3):
            L = tensor_lq(X, n, backend="householder")
            Y = X.unfold(n)
            np.testing.assert_allclose(L @ L.T, Y @ Y.T, atol=1e-10)

    def test_bad_backend(self, tensor4):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            tensor_lq(tensor4, 1, backend="cuda")

    def test_span_names(self, tensor4):
        from repro.obs import tracer as tr

        tracer = tr.Tracer()
        tr.activate(tracer)
        try:
            for n in range(4):
                tensor_lq(tensor4, n)
        finally:
            tr.deactivate()
        names = [s.name for s in tracer.spans]
        assert names.count("tensor_lq") == 4
        assert names.count("gelq") == 3  # modes 0..2
        assert names.count("geqr") == 1  # the row-major last mode

    def test_fault_hook_fires_once_per_call(self, rng):
        """``KernelFaultRule.call_index`` counts public calls, however
        many chunks each call folds."""
        from unittest import mock

        from repro.faults import FaultPlan, KernelFaultRule
        from repro.faults import injector as fi
        from repro.linalg import gelq, geqr

        inj = fi.FaultInjector(FaultPlan(
            seed=0, kernels=(KernelFaultRule("gelq", 2, kind="nan"),)))
        X = DenseTensor(rng.standard_normal((4, 5, 60)))
        fi.activate(inj, 0)
        try:
            with mock.patch.object(QR, "_CHUNK_COLS", 16):
                outs = [tensor_lq(X, n) for n in range(3)]   # gelq #0, #1, geqr #0
                outs.append(gelq(X.unfold(0)))                # gelq #2 -> corrupted
                outs.append(geqr(X.unfold(0).T))              # geqr #1
        finally:
            fi.deactivate()
        assert [bool(np.isnan(o).any()) for o in outs] == [False] * 3 + [True, False]
        fired = [e.as_tuple() for e in inj.trace]
        assert len(fired) == 1 and "kernel:gelq" in fired[0]
