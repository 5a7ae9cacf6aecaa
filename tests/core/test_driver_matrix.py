"""Every Tucker driver on every kind it takes, bit for bit, against a
straight-line reference.

Seven (algorithm, kind) arms — ``sthosvd`` on a dense, distributed and
out-of-core tensor, ``hosvd`` and ``hooi`` on a dense and distributed one
— x {qr, gram} x {float32, float64} on one seeded 4-way tensor.  Each
reference below is the algorithm written out as a plain loop over the
*public* kernels (``tensor_lq``, ``tensor_gram``, ``ooc_tensor_lq``,
``par_tensor_qr_svd``, ``par_ttm_truncate``, ...), the way
``bench/staged.py`` does for two of them; factors, core, sigmas and
ranks must agree bitwise.  The distributed arms run on the default SPMD
backend (``REPRO_SPMD_BACKEND``; threads unless CI says sockets) with P
in {2, 4}.  One more matrix checks that every arm refuses a
contradictory or impossible configuration, a keyword of another kind and
a kind its algorithm lacks with ``ConfigurationError``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core import (
    choose_rank,
    error_budget_per_mode,
    hooi,
    hosvd,
    ooc_tensor_gram,
    ooc_tensor_lq,
    sthosvd,
    tail_energy,
)
from repro.data import low_rank_tensor, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.dist import (
    DistributedTensor,
    GridComms,
    ProcessorGrid,
    par_tensor_gram_svd,
    par_tensor_qr_svd,
    par_ttm_truncate,
)
from repro.errors import ConfigurationError
from repro.linalg import left_svd_of_triangle, svd_from_gram, tensor_gram, tensor_lq
from repro.mpi import run_spmd
from repro.tensor.ttm import ttm

SHAPE = (10, 9, 8, 7)
RANKS = (3, 4, 2, 3)
TOL = 1e-2
SWEEPS = 3
FIT_TOL = 1e-9
CHUNK = 400  # out-of-core chunk budget: several chunks per mode
METHODS = ["qr", "gram"]
DTYPES = [np.float32, np.float64]
NPROCS = [2, 4]


def _tensor(dtype):
    return low_rank_tensor(SHAPE, RANKS, rng=2021, noise=1e-3).astype(dtype)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_lists(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same(g, w)


# ----------------------------------------------------------------------
# Straight-line references
# ----------------------------------------------------------------------
def _seq_svd(tensor, n, method):
    if method == "qr":
        return left_svd_of_triangle(tensor_lq(tensor, n))
    return svd_from_gram(tensor_gram(tensor, n))


def _ooc_svd(ooc, n, method):
    if method == "qr":
        return left_svd_of_triangle(ooc_tensor_lq(ooc, n, max_elements=CHUNK))
    return svd_from_gram(ooc_tensor_gram(ooc, n, max_elements=CHUNK))


def _par_svd(dt, n, method):
    if method == "qr":
        return par_tensor_qr_svd(dt, n)
    return par_tensor_gram_svd(dt, n)


def _leading(U, r):
    return np.ascontiguousarray(U[:, :r])


def _budget(sigma):
    """Per-mode budget from the first solved mode's spectrum, as the
    drivers take it: ``||X||^2`` is the float64 sum of its squares."""
    return error_budget_per_mode(tail_energy(sigma)[0], TOL, len(SHAPE))


def _ref_sthosvd(X, method, svd, truncate, *, ranks=None):
    """Alg. 1: solve, pick the rank, truncate, next mode."""
    current, factors, sigmas = X, [], []
    for n in range(len(SHAPE)):
        U, sigma = svd(current, n, method)
        sigmas.append(sigma)
        r = choose_rank(sigma, _budget(sigmas[0])) if ranks is None else ranks[n]
        factors.append(_leading(U, r))
        current = truncate(current, factors[n], n)
    return current, factors, sigmas


def _ref_hosvd(X, method, svd, truncate):
    """Every factor from the original tensor, then the core."""
    factors, sigmas = [], []
    for n in range(len(SHAPE)):
        U, sigma = svd(X, n, method)
        sigmas.append(sigma)
        factors.append(_leading(U, choose_rank(sigma, _budget(sigmas[0]))))
    core = X
    for n in range(len(SHAPE)):
        core = truncate(core, factors[n], n)
    return core, factors, sigmas


def _ref_hooi(X, method, svd, truncate):
    """ST-HOSVD start, then alternating sweeps until the fit stalls."""
    ndim = len(SHAPE)
    norm_x = X.norm()
    _, factors, _ = _ref_sthosvd(X, method, svd, truncate, ranks=RANKS)
    fits, core = [], None
    for iteration in range(SWEEPS):
        for n in range(ndim):
            partial = X
            for k in range(ndim):
                if k != n:
                    partial = truncate(partial, factors[k], k)
            U, _ = svd(partial, n, method)
            factors[n] = _leading(U, RANKS[n])
            if n == ndim - 1:
                core = truncate(partial, factors[n], n)
        fits.append(float(core.norm() / norm_x))
        if iteration > 0 and abs(fits[-1] - fits[-2]) < FIT_TOL:
            break
    return core, factors, fits


def _seq_ttm(tensor, U, n):
    return ttm(tensor, U, n, transpose=True)


# ----------------------------------------------------------------------
# Dense and out-of-core arms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("method", METHODS)
class TestSequentialDrivers:
    def test_sthosvd(self, method, dtype):
        X = _tensor(dtype)
        core, factors, sigmas = _ref_sthosvd(X, method, _seq_svd, _seq_ttm)
        res = sthosvd(X, tol=TOL, method=method)
        assert res.ranks == core.shape
        assert _same(res.tucker.core.data, core.data)
        _assert_same_lists(res.tucker.factors, factors)
        _assert_same_lists([res.sigmas[n] for n in range(X.ndim)], sigmas)

    def test_hosvd(self, method, dtype):
        X = _tensor(dtype)
        core, factors, sigmas = _ref_hosvd(X, method, _seq_svd, _seq_ttm)
        res = hosvd(X, tol=TOL, method=method)
        assert res.ranks == core.shape
        assert _same(res.tucker.core.data, core.data)
        _assert_same_lists(res.tucker.factors, factors)
        _assert_same_lists([res.sigmas[n] for n in range(X.ndim)], sigmas)

    def test_hooi(self, method, dtype):
        X = _tensor(dtype)
        core, factors, fits = _ref_hooi(X, method, _seq_svd, _seq_ttm)
        res = hooi(X, RANKS, method=method, max_iters=SWEEPS, fit_tol=FIT_TOL)
        assert res.ranks == RANKS
        assert res.fits == fits and res.iterations == len(fits)
        assert _same(res.tucker.core.data, core.data)
        _assert_same_lists(res.tucker.factors, factors)

    def test_sthosvd_out_of_core(self, method, dtype, tmp_path):
        X = _tensor(dtype)
        path = str(tmp_path / "x.bin")
        save_raw(X, path)
        ooc = OutOfCoreTensor(path, SHAPE, dtype)

        def truncate(current, U, n):
            return current.ttm_truncate_to_file(
                U, n, str(tmp_path / f"ref{n}.bin"), max_elements=CHUNK)

        current, factors, sigmas = _ref_sthosvd(ooc, method, _ooc_svd, truncate)
        core = current.to_dense()
        res = sthosvd(OutOfCoreTensor(path, SHAPE, dtype), tol=TOL,
                      method=method, max_elements=CHUNK)
        assert res.ranks == core.shape
        assert _same(res.tucker.core.data, core.data)
        _assert_same_lists(res.tucker.factors, factors)
        _assert_same_lists([res.sigmas[n] for n in range(X.ndim)], sigmas)


# ----------------------------------------------------------------------
# Distributed arms
# ----------------------------------------------------------------------
def _par_case(driver, nprocs, method, dtype, grid=None, backend=None):
    """Run driver and reference in one world; one record per rank."""
    X = _tensor(dtype)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(grid) if grid else
                          ProcessorGrid.for_size(comm.size, X.ndim))
        dt = DistributedTensor.from_full(comms, X.data)
        if driver == "hooi":
            res = hooi(
                dt, RANKS, method=method, max_iters=SWEEPS, fit_tol=FIT_TOL)
            core, factors, extra = _ref_hooi(dt, method, _par_svd, par_ttm_truncate)
            got_extra = res.fits
        else:
            if driver == "sthosvd":
                res = sthosvd(dt, tol=TOL, method=method)
                core, factors, extra = _ref_sthosvd(
                    dt, method, _par_svd, par_ttm_truncate)
            else:
                res = hosvd(dt, tol=TOL, method=method)
                core, factors, extra = _ref_hosvd(
                    dt, method, _par_svd, par_ttm_truncate)
            got_extra = [res.sigmas[n] for n in range(dt.ndim)]
        return {
            "ranks": (res.ranks, core.global_shape),
            "core": (res.core.local.data, core.local.data),
            "factors": (list(res.factors), factors),
            "extra": (got_extra, extra),
        }

    return run_spmd(prog, nprocs, backend=backend).values


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("method", METHODS)
class TestParallelDrivers:
    def _check(self, records, nprocs):
        assert len(records) == nprocs
        for rec in records:
            got, want = rec["ranks"]
            assert got == want
            assert _same(*rec["core"])
            _assert_same_lists(*rec["factors"])
        # Replicated outputs are the same bits on every rank.
        for rec in records[1:]:
            _assert_same_lists(rec["factors"][0], records[0]["factors"][0])

    def test_sthosvd_parallel(self, method, dtype, nprocs):
        records = _par_case("sthosvd", nprocs, method, dtype)
        self._check(records, nprocs)
        for rec in records:
            _assert_same_lists(*rec["extra"])

    def test_hosvd_parallel(self, method, dtype, nprocs):
        records = _par_case("hosvd", nprocs, method, dtype)
        self._check(records, nprocs)
        for rec in records:
            _assert_same_lists(*rec["extra"])

    def test_hooi_parallel(self, method, dtype, nprocs):
        records = _par_case("hooi", nprocs, method, dtype)
        self._check(records, nprocs)
        for rec in records:
            got, want = rec["extra"]
            assert got == want  # the fit history, float for float


# ``for_size`` puts 1 on the first-processed mode, so the cases above
# redistribute and reduce-scatter only an already truncated tensor.  These
# pin the grid the other way round: mode 0 (and 1) distributed at full size.
LEADING_GRIDS = [(2, 1, 1, 1), (2, 2, 1, 1)]


@pytest.mark.parametrize("grid", LEADING_GRIDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("method", METHODS)
class TestLeadingModeGrids:
    @pytest.mark.parametrize("driver", ["sthosvd", "hosvd", "hooi"])
    def test_matches_reference(self, driver, method, dtype, grid):
        nprocs = int(np.prod(grid))
        records = _par_case(driver, nprocs, method, dtype, grid)
        TestParallelDrivers()._check(records, nprocs)
        for rec in records:
            got, want = rec["extra"]
            if driver == "hooi":
                assert got == want
            else:
                _assert_same_lists(got, want)

    def test_same_bits_on_every_backend(self, method, dtype, grid):
        nprocs = int(np.prod(grid))
        worlds = [_par_case("sthosvd", nprocs, method, dtype, grid, backend)
                  for backend in ("threads", "procs", "sockets")]
        for records in worlds[1:]:
            for rec, rec0 in zip(records, worlds[0]):
                assert _same(rec["core"][0], rec0["core"][0])
                _assert_same_lists(rec["factors"][0], rec0["factors"][0])
                _assert_same_lists(rec["extra"][0], rec0["extra"][0])


# ----------------------------------------------------------------------
# Configuration errors
# ----------------------------------------------------------------------
BAD_CONFIGS = {
    "tol_and_ranks": dict(tol=TOL, ranks=RANKS),
    "wrong_rank_count": dict(ranks=RANKS[:2]),
    "rank_too_large": dict(ranks=(SHAPE[0] + 1,) + RANKS[1:]),
    "rank_zero": dict(ranks=(0,) + RANKS[1:]),
    "unsupported_method": dict(ranks=RANKS, method="lanczos"),
}
# (algorithm, kind) arms; a row's id keeps the arm's name of the old
# per-kind drivers ("sthosvd_parallel" is sthosvd on a distributed tensor).
DRIVERS = [
    ("sthosvd", "dense"), ("hosvd", "dense"), ("hooi", "dense"),
    ("sthosvd", "out_of_core"),
    ("sthosvd", "parallel"), ("hosvd", "parallel"), ("hooi", "parallel"),
]
ALGORITHMS = {"sthosvd": sthosvd, "hosvd": hosvd, "hooi": hooi}
# The per-kind keywords (``KIND_OPTIONS``): the kind that reads each, and
# a value to give it on every other kind whose algorithm has it.
KIND_KEYWORDS = {
    "checkpoint": ("parallel", "a-checkpoint"),
    "max_elements": ("out_of_core", CHUNK),
    "workdir": ("out_of_core", "no-such-dir"),
    "checkpoint_dir": ("out_of_core", "no-such-dir"),
    "svd_options": ("dense", {"oversample": 2}),
    "init": ("dense", "random"),
}


def _refusals():
    for algorithm, kind in DRIVERS:
        arm = algorithm if kind == "dense" else f"{algorithm}_{kind}"
        for case in sorted(BAD_CONFIGS):
            if case != "tol_and_ranks" or algorithm != "hooi":  # no tol
                yield pytest.param((algorithm, kind), BAD_CONFIGS[case],
                                   id=f"{arm}-{case}")
        takes = inspect.signature(ALGORITHMS[algorithm]).parameters
        for name, (owner, value) in sorted(KIND_KEYWORDS.items()):
            if owner != kind and name in takes:
                yield pytest.param((algorithm, kind),
                                   {"ranks": RANKS, name: value},
                                   id=f"{arm}-{name}")
    for algorithm in ("hosvd", "hooi"):  # no out-of-core HOSVD or HOOI
        yield pytest.param((algorithm, "out_of_core"), {"ranks": RANKS},
                           id=f"{algorithm}_out_of_core-kind")


def _call(algorithm, target, config):
    """Invoke ``algorithm`` on ``target`` with a (bad) configuration."""
    config = dict(config)
    if algorithm == "hooi":
        # HOOI takes ranks positionally.
        return hooi(target, config.pop("ranks"), **config)
    return ALGORITHMS[algorithm](target, **config)


@pytest.mark.parametrize("driver, config", _refusals())
def test_bad_configuration_refused(driver, config, tmp_path):
    algorithm, kind = driver
    X = _tensor(np.float64)
    if kind == "parallel":
        def prog(comm):
            comms = GridComms(comm, ProcessorGrid.for_size(comm.size, X.ndim))
            dt = DistributedTensor.from_full(comms, X.data)
            with pytest.raises(ConfigurationError):
                _call(algorithm, dt, config)
            return "refused"

        assert run_spmd(prog, 2).values == ["refused", "refused"]
        return
    target = X
    if kind == "out_of_core":
        path = str(tmp_path / "x.bin")
        save_raw(X, path)
        target = OutOfCoreTensor(path, SHAPE)
    with pytest.raises(ConfigurationError):
        _call(algorithm, target, config)
