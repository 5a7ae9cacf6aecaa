"""Distributed classic HOSVD tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import hosvd, sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.errors import ConfigurationError
from repro.mpi import run_spmd


@pytest.fixture(scope="module")
def X():
    return low_rank_tensor((10, 12, 8), (3, 2, 2), rng=17, noise=1e-9)


GRIDS = [(1, 1, 1), (2, 2, 1), (1, 3, 2)]


class TestHosvdParallel:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_matches_sequential(self, X, grid, method):
        seq = hosvd(X, tol=1e-6, method=method)

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(grid))
            dt = DistributedTensor.from_full(comms, X.data)
            res = hosvd(dt, tol=1e-6, method=method)
            return res.ranks, res.to_tucker().rel_error(X)

        out = run_spmd(prog, int(np.prod(grid)))
        ranks, err = out[0]
        assert ranks == seq.ranks
        assert err <= 1.1e-6

    def test_sigmas_from_original_tensor(self, X):
        """Unlike ST-HOSVD, every mode's sigmas come from the original."""

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 1, 2)))
            dt = DistributedTensor.from_full(comms, X.data)
            return hosvd(dt, tol=1e-6).sigmas

        sigmas = run_spmd(prog, 4)[0]
        for n in range(3):
            sref = np.linalg.svd(X.unfold(n), compute_uv=False)
            np.testing.assert_allclose(sigmas[n], sref, atol=1e-9)

    def test_fixed_ranks(self, X):
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 2, 1)))
            dt = DistributedTensor.from_full(comms, X.data)
            return hosvd(dt, ranks=(2, 2, 2)).ranks

        assert run_spmd(prog, 4)[0] == (2, 2, 2)

    def test_costlier_than_sthosvd(self, X):
        """Classic HOSVD does strictly more reduction work at scale."""

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((2, 2, 1)))
            dt = DistributedTensor.from_full(comms, X.data)
            h = hosvd(dt, ranks=(3, 2, 2), method="qr")
            s = sthosvd(dt, ranks=(3, 2, 2), method="qr")
            return h.flops.phase_total("lq"), s.flops.phase_total("lq")

        h_fl, s_fl = run_spmd(prog, 4)[0]
        assert h_fl > s_fl

    def test_validation(self, X):
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid((1, 1, 1)))
            dt = DistributedTensor.from_full(comms, X.data)
            hosvd(dt, tol=0.1, ranks=(1, 1, 1))

        with pytest.raises(ConfigurationError):
            run_spmd(prog, 1)
