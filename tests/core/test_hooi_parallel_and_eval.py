"""Distributed HOOI, streaming error evaluation, and memory model tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    hooi,
    rel_error_lowmem,
    sthosvd,
    streaming_rel_error,
)
from repro.data import low_rank_tensor, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.errors import ConfigurationError, ShapeError
from repro.mpi import run_spmd
from repro.perf import simulate_memory


@pytest.fixture(scope="module")
def X():
    return low_rank_tensor((10, 12, 8, 9), (3, 2, 4, 2), rng=2, noise=1e-9)


class TestHooiParallel:
    @pytest.mark.parametrize("grid", [(1, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 2)])
    def test_matches_sequential(self, X, grid):
        seq = hooi(X, ranks=(3, 2, 4, 2))

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X.data)
            res = hooi(dt, ranks=(3, 2, 4, 2))
            return res.to_tucker().rel_error(X), res.converged

        out = run_spmd(prog, int(np.prod(grid)))
        err, converged = out[0]
        assert converged
        assert err == pytest.approx(seq.tucker.rel_error(X), abs=1e-9)

    def test_factors_replicated(self, X):
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 2, 1, 1)))
            dt = DistributedTensor.from_full(comms, X.data)
            return hooi(dt, ranks=(2, 2, 2, 2)).factors

        res = run_spmd(prog, 4)
        for factors in res.values[1:]:
            for a, b in zip(res[0], factors):
                np.testing.assert_array_equal(a, b)

    def test_fits_monotone(self, X):
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 1, 1, 2)))
            dt = DistributedTensor.from_full(comms, X.data)
            return hooi(dt, ranks=(2, 2, 2, 2), max_iters=6,
                        fit_tol=0.0).fits

        fits = np.array(run_spmd(prog, 4)[0])
        assert np.all(np.diff(fits) >= -1e-12)

    def test_validation(self, X):
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((1, 1, 1, 1)))
            dt = DistributedTensor.from_full(comms, X.data)
            hooi(dt, ranks=(2, 2, 2, 2), method="randomized")

        with pytest.raises(ConfigurationError):
            run_spmd(prog, 1)


class TestStreamingError:
    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        X = low_rank_tensor((12, 10, 14), (3, 4, 2), rng=9, noise=1e-8)
        res = sthosvd(X, tol=1e-4)
        path = str(tmp_path_factory.mktemp("eval") / "ref.bin")
        save_raw(X, path)
        return X, res, OutOfCoreTensor(path, X.shape)

    @pytest.mark.parametrize("slab", [40, 300, 10**7])
    def test_matches_direct(self, setup, slab):
        X, res, ooc = setup
        direct = res.tucker.rel_error(X)
        assert streaming_rel_error(res.tucker, ooc, slab_elements=slab) == pytest.approx(
            direct, rel=1e-10
        )

    @pytest.mark.parametrize("slab", [40, 10**7])
    def test_lowmem_matches(self, setup, slab):
        X, res, _ = setup
        direct = res.tucker.rel_error(X)
        assert rel_error_lowmem(res.tucker, X, slab_elements=slab) == pytest.approx(
            direct, rel=1e-10
        )

    def test_shape_mismatch(self, setup, tmp_path):
        X, res, _ = setup
        other = low_rank_tensor((5, 5, 5), (1, 1, 1), rng=0)
        p = str(tmp_path / "bad.bin")
        save_raw(other, p)
        with pytest.raises(ShapeError):
            streaming_rel_error(res.tucker, OutOfCoreTensor(p, other.shape))

    def test_zero_reference(self, tmp_path):
        from repro.core import TuckerTensor
        from repro.tensor import DenseTensor

        core = DenseTensor(np.zeros((1, 1)))
        tk = TuckerTensor(core=core, factors=(np.zeros((4, 1)), np.zeros((3, 1))))
        p = str(tmp_path / "z.bin")
        save_raw(DenseTensor(np.zeros((4, 3))), p)
        assert streaming_rel_error(tk, OutOfCoreTensor(p, (4, 3))) == 0.0


class TestMemoryModel:
    def test_peak_positive_and_attributed(self):
        m = simulate_memory((256,) * 4, (32,) * 4, (4, 4, 2, 1))
        assert m.peak_bytes > 0
        assert m.peak_mode in range(4)
        assert m.peak_bytes == max(m.by_mode.values())

    def test_first_mode_dominates(self):
        """Memory peaks while the tensor is still untruncated."""
        m = simulate_memory((256,) * 4, (16,) * 4, (2, 2, 2, 2))
        assert m.peak_mode == 0

    def test_single_halves_double(self):
        m64 = simulate_memory((128,) * 3, (16,) * 3, (2, 2, 2), precision="double")
        m32 = simulate_memory((128,) * 3, (16,) * 3, (2, 2, 2), precision="single")
        assert m32.peak_bytes == pytest.approx(m64.peak_bytes / 2)

    def test_weak_scaling_memory_constant(self):
        """The weak-scaling family keeps per-rank memory ~flat."""
        from repro.perf import weak_scaling_config

        peaks = []
        for k in (1, 2, 3):
            cfg = weak_scaling_config(k)
            m = simulate_memory(cfg["shape"], cfg["ranks"], cfg["qr_grid"],
                                mode_order="backward")
            peaks.append(m.peak_bytes)
        assert max(peaks) / min(peaks) < 1.6

    def test_more_ranks_less_memory(self):
        small = simulate_memory((200,) * 3, (20,) * 3, (2, 2, 2))
        big = simulate_memory((200,) * 3, (20,) * 3, (4, 4, 4))
        assert big.peak_bytes < small.peak_bytes

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_memory((8, 8), (2,), (1, 1))
        with pytest.raises(ConfigurationError):
            simulate_memory((8, 8), (2, 2), (1, 1), method="nope")
