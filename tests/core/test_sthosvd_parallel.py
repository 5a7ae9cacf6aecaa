"""ST-HOSVD of a distributed tensor: equivalence with a dense one."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.errors import ConfigurationError
from repro.mpi import run_spmd


@pytest.fixture(scope="module")
def X():
    return low_rank_tensor((8, 12, 6, 9), (2, 4, 3, 2), rng=9, noise=1e-9)


def _run(X, grid_dims, **kwargs):
    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid_dims))
        dt = DistributedTensor.from_full(comms, X.data)
        res = sthosvd(dt, **kwargs)
        # The core is distributed: no attribute read hides a gather.
        with pytest.raises(ConfigurationError, match=r"to_tucker\(\)"):
            res.tucker
        return {
            "ranks": res.ranks,
            "err": res.to_tucker().rel_error(X),
            "est": res.estimated_rel_error(),
            "cr": res.compression_ratio(),
            "factors": res.factors,
            "order": res.mode_order,
            "precision": str(res.precision),
        }

    return run_spmd(prog, int(np.prod(grid_dims)))


GRIDS = [(1, 1, 1, 1), (2, 2, 1, 1), (1, 3, 2, 1), (2, 2, 1, 2)]


class TestEquivalence:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_matches_sequential(self, X, grid, method):
        seq = sthosvd(X, tol=1e-6, method=method)
        res = _run(X, grid, tol=1e-6, method=method)
        out = res[0]
        assert out["ranks"] == seq.ranks
        assert out["err"] <= 1.1e-6
        # estimates agree up to roundoff-level differences in the tails
        # (parallel and sequential reductions round differently)
        assert out["est"] <= 1e-6
        assert abs(out["est"] - seq.estimated_rel_error()) < 1e-7

    @pytest.mark.parametrize("grid", GRIDS[:2])
    def test_backward_ordering(self, X, grid):
        seq = sthosvd(X, tol=1e-6, mode_order="backward")
        out = _run(X, grid, tol=1e-6, mode_order="backward")[0]
        assert out["order"] == (3, 2, 1, 0)
        assert out["ranks"] == seq.ranks

    def test_fixed_ranks(self, X):
        out = _run(X, (2, 1, 2, 1), ranks=(2, 3, 2, 2))[0]
        assert out["ranks"] == (2, 3, 2, 2)

    def test_results_replicated(self, X):
        res = _run(X, (2, 2, 1, 1), tol=1e-6)
        U0 = res[0]["factors"]
        for out in res.values[1:]:
            for a, b in zip(U0, out["factors"]):
                np.testing.assert_array_equal(a, b)

    def test_single_precision(self, X):
        res = _run(X, (2, 2, 1, 1), tol=1e-3, precision="single")
        out = res[0]
        assert out["precision"] == "single"
        assert out["ranks"] == (2, 4, 3, 2)
        assert out["err"] < 1e-3


class TestValidation:
    def test_bad_method(self, X):
        with pytest.raises(ConfigurationError):
            _run(X, (1, 1, 1, 1), tol=0.1, method="magic")

    def test_tol_xor_ranks(self, X):
        with pytest.raises(ConfigurationError):
            _run(X, (1, 1, 1, 1), tol=0.1, ranks=(1, 1, 1, 1))

