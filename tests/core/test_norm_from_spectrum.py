"""``||X||`` comes from the first solved mode's spectrum, on every driver.

Two things are pinned.  The *passes*: with every ``sum_of_squares``
binding replaced by one that raises, a ``tol=`` run of each ST-HOSVD /
HOSVD driver still completes (it never reads its input for a norm),
while HOOI — whose first solve sees a contracted partial — raises.  The
*contract*: ``|norm_x^2 - ||X||^2| <= 64 eps ||X||^2`` in the working
precision, for {qr, gram} x {float32, float64}, a backward order, a
first mode with fewer columns than rows, an all-zero tensor, and a
resumed and a recovered run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import hooi, hosvd, sthosvd, sthosvd_fault_tolerant
from repro.data import low_rank_tensor, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.faults import CrashRule, FaultPlan
from repro.mpi import run_spmd

TOL = 1e-3
METHODS = ["qr", "gram"]
DTYPES = [np.float32, np.float64]
# name -> (shape, mode_order); "tall" has a 30 x 24 first unfolding.
CASES = {
    "forward": ((10, 9, 8, 7), "forward"),
    "backward": ((10, 9, 8, 7), "backward"),
    "tall": ((30, 3, 2, 4), "forward"),
    "zero": ((6, 5, 4, 3), "forward"),
}


def _tensor(case, dtype):
    shape, _ = CASES[case]
    if case == "zero":
        return low_rank_tensor(shape, (1,) * 4, rng=3).astype(dtype) * 0.0
    ranks = tuple(min(3, d) for d in shape)
    return low_rank_tensor(shape, ranks, rng=2021, noise=1e-5).astype(dtype)


def _assert_contract(norm_x, X):
    exact = math.fsum((X.data.astype(np.float64).ravel() ** 2).tolist())
    eps = float(np.finfo(X.dtype).eps)
    assert abs(norm_x * norm_x - exact) <= 64 * eps * exact


def _parallel(driver, X, nprocs, order="forward", **kwargs):
    if driver is sthosvd:
        kwargs["mode_order"] = order

    def prog(comm):
        grid = ProcessorGrid.for_size(comm.size, X.ndim, order)
        dt = DistributedTensor.from_full(GridComms(comm, grid), X.data)
        res = driver(dt, **kwargs)
        return res.norm_x, res.ranks

    values = run_spmd(prog, nprocs, backend="threads").values
    assert all(v == values[0] for v in values[1:])  # bitwise replicated
    return values[0]


@pytest.fixture
def no_norm_pass(monkeypatch):
    """Every way a tensor kind sums its squares now raises."""
    import repro.data.outofcore
    import repro.dist.dtensor
    import repro.tensor.dense

    def refuse(flat):
        raise AssertionError("a pass over the data for its norm")

    for module in (repro.tensor.dense, repro.dist.dtensor, repro.data.outofcore):
        monkeypatch.setattr(module, "sum_of_squares", refuse)


class TestNoPassForTheNorm:
    @pytest.mark.parametrize("method", METHODS)
    def test_sequential_drivers(self, no_norm_pass, method, tmp_path):
        X = _tensor("forward", np.float32)
        ranks = sthosvd(X, tol=TOL, method=method).ranks
        assert hosvd(X, tol=TOL, method=method).norm_x > 0
        path = str(tmp_path / "x.bin")
        save_raw(X, path)
        ooc = sthosvd(OutOfCoreTensor(path, X.shape, np.float32), tol=TOL,
                      method=method, max_elements=400)
        assert ooc.ranks == ranks

    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize("method", METHODS)
    def test_parallel_drivers(self, no_norm_pass, method, nprocs):
        X = _tensor("forward", np.float64)
        ranks = sthosvd(X, tol=TOL, method=method).ranks
        assert _parallel(sthosvd, X, nprocs, tol=TOL, method=method)[1] == ranks
        assert _parallel(hosvd, X, nprocs, tol=TOL, method=method)[0] > 0

    def test_hooi_and_randomized_are_the_callers_left(self, no_norm_pass):
        X = _tensor("forward", np.float64)
        with pytest.raises(AssertionError, match="pass over the data"):
            hooi(X, (3, 3, 3, 3))
        with pytest.raises(AssertionError, match="pass over the data"):
            _parallel(hooi, X, 2, ranks=(3, 3, 3, 3))
        with pytest.raises(AssertionError, match="pass over the data"):
            sthosvd(X, ranks=(3, 3, 3, 3), method="randomized")


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("method", METHODS)
class TestNormContract:
    def test_sequential_drivers(self, method, dtype, case, tmp_path):
        X, order = _tensor(case, dtype), CASES[case][1]
        res = sthosvd(X, tol=TOL, method=method, mode_order=order)
        _assert_contract(res.norm_x, X)
        assert res.estimated_rel_error() <= TOL
        _assert_contract(hosvd(X, tol=TOL, method=method).norm_x, X)
        path = str(tmp_path / "x.bin")
        save_raw(X, path)
        ooc = sthosvd(OutOfCoreTensor(path, X.shape, dtype), tol=TOL,
                      method=method, mode_order=order, max_elements=400)
        _assert_contract(ooc.norm_x, X)
        assert ooc.ranks == res.ranks

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_parallel_drivers(self, method, dtype, case, nprocs):
        X, order = _tensor(case, dtype), CASES[case][1]
        norm_x, ranks = _parallel(
            sthosvd, X, nprocs, order, tol=TOL, method=method)
        _assert_contract(norm_x, X)
        assert ranks == sthosvd(X, tol=TOL, method=method, mode_order=order).ranks
        _assert_contract(
            _parallel(hosvd, X, nprocs, tol=TOL, method=method)[0], X)

    def test_hooi_keeps_the_explicit_norm(self, method, dtype, case):
        X = _tensor(case, dtype)
        ranks = (1,) * 4 if case == "zero" else (2, 2, 2, 2)
        assert hooi(X, ranks, method=method, max_iters=2).norm_x == X.norm()
        _assert_contract(_parallel(
            hooi, X, 2, ranks=ranks, method=method, max_iters=2)[0], X)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("at_op,resumed_step", [(10, 0), (16, 1)])
def test_recovered_run_keeps_the_contract(dtype, at_op, resumed_step):
    """A rank killed inside mode 0 leaves an entry checkpoint with no norm:
    the survivors derive it from their own first solve.  Killed after
    mode 0, they resume with the stored number, bit for bit."""
    X = _tensor("forward", dtype)

    def clean(comm):
        grid = ProcessorGrid.for_size(comm.size, X.ndim)
        dt = DistributedTensor.from_full(GridComms(comm, grid), X.data)
        res = sthosvd(dt, tol=TOL, method="qr")
        return res.norm_x, res.ranks

    def prog(comm):
        res = sthosvd_fault_tolerant(
            comm, X.data if comm.rank == 0 else None, tol=TOL, method="qr")
        return res.events, res.result.norm_x, res.result.ranks

    plan = FaultPlan(seed=1, crashes=(CrashRule(rank=2, at_op=at_op),))
    out = run_spmd(prog, 4, backend="threads", faults=plan, resilience=True)
    assert out.failed_ranks == [2]
    done = [v for v in out.values if v is not None]
    assert len(done) == 3 and all(v[1:] == done[0][1:] for v in done[1:])
    ((kind, detail),), norm_x, ranks = done[0]
    assert kind == "rank_failure" and detail["resumed_step"] == resumed_step
    _assert_contract(norm_x, X)
    clean_norm, clean_ranks = run_spmd(clean, 4, backend="threads").values[0]
    assert ranks == clean_ranks
    if resumed_step:
        assert norm_x == clean_norm
