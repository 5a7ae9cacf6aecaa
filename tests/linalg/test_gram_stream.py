"""The streamed Gram kernel: one loop for every mode (structure, not wall clock).

``streamed_gram`` is the only place a chunk is folded into ``G``;
``tensor_gram``, ``gram_matrix`` and ``ooc_tensor_gram`` feed it runs.
These tests pin the result against ``Y @ Y.T`` in float64, the number of
folds, and what the kernel may allocate, keep and write.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import ooc_tensor_gram
from repro.data.outofcore import OutOfCoreTensor
from repro.instrument import FlopCounter, PHASE_GRAM
from repro.linalg import block_runs, gram_matrix, tensor_gram
from repro.linalg import gram as gram_mod
from repro.linalg.flops import gram_flops
from repro.linalg.gram import streamed_gram
from repro.linalg.qr import _CHUNK_COLS
from repro.tensor import DenseTensor

# Odd-shaped 1- to 5-way tensors: a single mode, cols < rows (mode 0 of
# (50, 3, 2)), a size-1 mode, narrow blocks spanning several runs (mode 1
# of (5, 31, 40, 17) has 3400 columns in blocks of 5), wide blocks.
SHAPES = [
    (7,),
    (5, 9),
    (50, 3, 2),
    (3, 1, 11),
    (5, 31, 40, 17),
    (70, 3, 41, 5),
    (3, 4, 2, 5, 3),
]


def _tensor(shape, dtype=np.float64, seed=0) -> DenseTensor:
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.standard_normal(shape).astype(dtype))


def _exact(tensor: DenseTensor, n: int) -> np.ndarray:
    Y = tensor.unfold(n).astype(np.float64)
    return Y @ Y.T


def _check(G, tensor, n, eps, dtype):
    Y = tensor.unfold(n)
    ref = _exact(tensor, n)
    assert G.dtype == dtype
    assert G.shape == ref.shape
    np.testing.assert_array_equal(G, G.T)
    bound = 4 * max(Y.shape[1], 1) * eps * float(np.linalg.norm(ref, 2))
    assert np.abs(G - ref).max() <= bound


class TestAgainstTheUnfolding:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_mode_float64(self, shape):
        X = _tensor(shape)
        for n in range(X.ndim):
            _check(tensor_gram(X, n), X, n, np.finfo(np.float64).eps, np.float64)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_mode_float32(self, shape):
        X = _tensor(shape, np.float32)
        for n in range(X.ndim):
            _check(tensor_gram(X, n), X, n, np.finfo(np.float32).eps, np.float32)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_accumulate_double_is_the_float64_gram_of_the_widened_tensor(self, shape):
        X = _tensor(shape, np.float32)
        for n in range(X.ndim):
            G = tensor_gram(X, n, accumulate="double")
            _check(G, X, n, np.finfo(np.float64).eps, np.float64)
            Gm = gram_matrix(X.unfold(n), accumulate="double")
            _check(Gm, X, n, np.finfo(np.float64).eps, np.float64)

    def test_accumulate_double_on_float64_changes_nothing(self):
        X = _tensor((5, 31, 40))
        for n in range(3):
            np.testing.assert_array_equal(
                tensor_gram(X, n, accumulate="double"), tensor_gram(X, n)
            )

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_matrix_any_layout(self, order):
        rng = np.random.default_rng(3)
        A = np.asarray(rng.standard_normal((9, 5000)), order=order)
        for M in (A, A[:, ::3], A[2:7, 100:4200]):
            G = gram_matrix(M)
            np.testing.assert_array_equal(G, G.T)
            np.testing.assert_allclose(G, M @ M.T, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("width", [1, 3, 64, 5000])
    def test_any_chunking_of_the_runs(self, width):
        X = _tensor((4, 9, 50))
        for n in range(3):
            Y = X.unfold(n)
            runs = (Y[None, :, c : c + width] for c in range(0, Y.shape[1], width))
            G = streamed_gram(runs, Y.shape[0], Y.dtype)
            _check(G, X, n, np.finfo(np.float64).eps, np.float64)

    @pytest.mark.parametrize("shape", [(4, 0, 3), (0, 5), (3, 0)])
    def test_empty_tensor(self, shape):
        X = DenseTensor(np.zeros(shape))
        for n in range(X.ndim):
            G = tensor_gram(X, n, counter=FlopCounter())
            assert G.shape == (shape[n], shape[n])
            assert not G.any()
        assert streamed_gram(iter(()), 3, np.float32).shape == (3, 3)

    def test_bad_accumulate(self):
        with pytest.raises(ValueError, match="accumulate"):
            tensor_gram(_tensor((3, 4)), 0, accumulate="quad")
        with pytest.raises(ValueError, match="accumulate"):
            gram_matrix(np.ones((3, 4)), accumulate="single")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("max_elements", [64, 1000, 1 << 22])
    def test_out_of_core_feeds_the_same_loop(self, tmp_path, dtype, max_elements):
        X = _tensor((5, 31, 12, 7), dtype)
        ooc = OutOfCoreTensor.from_dense(X, str(tmp_path / "x.bin"))
        eps = np.finfo(dtype).eps
        for n in range(X.ndim):
            counter = FlopCounter()
            G = ooc_tensor_gram(ooc, n, max_elements=max_elements, counter=counter)
            _check(G, X, n, eps, dtype)
            assert counter.total == gram_flops(X.shape[n], X.size // X.shape[n])

    def test_flops_are_counted_once_per_call(self):
        X = _tensor((5, 31, 40, 17))
        for n in range(4):
            counter = FlopCounter()
            tensor_gram(X, n, counter=counter)
            assert counter.total == gram_flops(X.shape[n], X.size // X.shape[n])
            assert dict(counter.by_phase) == {PHASE_GRAM: counter.total}


class _CountedRuns:
    """Spy on ``streamed_gram``: what runs does a caller hand it?"""

    def __init__(self, monkeypatch):
        self.runs: list[tuple[int, int, int]] = []
        real = gram_mod.streamed_gram

        def spy(runs, *args, **kwargs):
            def counted():
                for run in runs:
                    self.runs.append(run.shape)
                    yield run
            return real(counted(), *args, **kwargs)

        monkeypatch.setattr(gram_mod, "streamed_gram", spy)


class TestFoldCount:
    """Folds are O(cols / _CHUNK_COLS), not one per column block."""

    def test_narrow_blocks_are_folded_a_run_at_a_time(self, monkeypatch):
        X = _tensor((10, 48, 33, 48))
        spy = _CountedRuns(monkeypatch)
        tensor_gram(X, 1)
        assert X.num_column_blocks(1) == 1584  # what the per-block loop did
        assert 1 < len(spy.runs) <= 9
        assert sum(k * bcols for k, _, bcols in spy.runs) == X.size // 48
        assert all(k * bcols <= _CHUNK_COLS + 10 for k, _, bcols in spy.runs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mode_zero_and_the_last_mode_go_whole(self, monkeypatch, dtype):
        X = _tensor((10, 48, 33, 48), dtype)
        spy = _CountedRuns(monkeypatch)
        for n in (0, 3):
            del spy.runs[:]
            tensor_gram(X, n)
            assert len(spy.runs) == 1
        del spy.runs[:]
        gram_matrix(np.ones((6, 9000), dtype=dtype))
        assert len(spy.runs) == 1

    def test_a_run_to_widen_is_chunked_whatever_the_mode(self, monkeypatch):
        X = _tensor((10, 48, 33, 48), np.float32)
        spy = _CountedRuns(monkeypatch)
        for n in range(4):
            del spy.runs[:]
            tensor_gram(X, n, accumulate="double")
            cols = X.size // X.shape[n]
            assert cols // (_CHUNK_COLS + 48) <= len(spy.runs) <= cols // _CHUNK_COLS + 1

    def test_only_non_matrix_runs_are_packed(self, monkeypatch):
        packed = []
        real = gram_mod._pack
        monkeypatch.setattr(
            gram_mod, "_pack", lambda run, buf: packed.append(run.shape) or real(run, buf)
        )
        X = _tensor((6, 20, 7, 9))
        tensor_gram(X, 0)
        tensor_gram(X, 3)
        gram_matrix(np.ones((4, 30)))
        gram_matrix(np.asfortranarray(np.ones((4, 30))))
        # Wide blocks, a few to a run, are folded one by one as they lie.
        tensor_gram(_tensor((30, 30, 7, 6)), 2)
        assert packed == []
        tensor_gram(X, 1)
        tensor_gram(X, 2)
        assert len(packed) == 2  # one run each at this size
        gram_matrix(np.ones((4, 60))[:, ::2])
        assert packed[-1] == (1, 4, 30)


class TestMemory:
    def test_input_is_never_written(self):
        X = _tensor((6, 20, 7, 30), np.float32)
        before = X.data.copy()
        X.data.flags.writeable = False
        for n in range(4):
            tensor_gram(X, n)
            tensor_gram(X, n, accumulate="double")
        np.testing.assert_array_equal(X.data, before)

    def test_no_run_buffer_outlives_the_call(self):
        X = _tensor((10, 48, 33, 24))
        tensor_gram(X, 1)  # warm caches and lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            G = tensor_gram(X, 1)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept <= G.nbytes + 4096

    def test_mixed_precision_widens_one_run_not_the_unfolding(self):
        # Satellite: accumulate="double" used to allocate a float64 copy
        # of the whole mode-0 unfolding (14.6 MB here).
        X = _tensor((24, 48, 33, 48), np.float32)
        ref = DenseTensor(X.data.astype(np.float64))
        for n in range(X.ndim):
            rows = X.shape[n]
            run_bytes = rows * (max(_CHUNK_COLS, rows) + X.size // rows // X.num_column_blocks(n)) * 8
            tensor_gram(X, n, accumulate="double")
            gc.collect()
            tracemalloc.start()
            try:
                G = tensor_gram(X, n, accumulate="double")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * run_bytes + 3 * G.nbytes, (n, peak)
            assert peak < X.size * 8 / 3
            np.testing.assert_allclose(G, tensor_gram(ref, n), rtol=1e-12,
                                       atol=1e-12 * np.abs(G).max())

    def test_block_runs_is_the_lq_cutter(self):
        from repro.linalg import qr

        assert gram_mod.block_runs is qr.block_runs is block_runs
        assert gram_mod._pack is qr._pack
