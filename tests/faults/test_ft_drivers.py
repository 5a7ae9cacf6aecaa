"""Checkpointed ST-HOSVD/HOOI on a distributed tensor survive rank failures.

A seeded plan that kills one rank mid-mode and drops a percent of
messages must still yield a completed decomposition on the shrunk
communicator, with reconstruction error within 10x of the fault-free
run, deterministically across replays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import hooi, modeloop, sthosvd
from repro.dist import GridComms, ProcessorGrid, distribute_from_root
from repro.errors import ConvergenceError, RankFailedError
from repro.faults import (
    CrashRule,
    DistributedCheckpoint,
    FaultPlan,
    KernelFaultRule,
    MessageFaultRule,
)
from repro.mpi import run_spmd
from repro.obs import Tracer

SHAPE = (16, 14, 12)
RANKS = (6, 5, 4)
FULL = np.asfortranarray(
    np.random.default_rng(3).standard_normal(SHAPE)
)


def _distributed(comm, mode_order="forward"):
    """``FULL`` from rank 0, laid out the way a recovery re-lays it."""
    grid = ProcessorGrid.for_size(comm.size, len(SHAPE), mode_order)
    return distribute_from_root(GridComms(comm, grid),
                                FULL if comm.rank == 0 else None)


def _recoveries(res):
    return sum(kind == "rank_failure" for kind, _ in res.rank_failures)


def _sthosvd_prog(comm):
    res = sthosvd(_distributed(comm), ranks=RANKS, method="qr",
                  checkpoint=DistributedCheckpoint("sthosvd"))
    tucker = res.to_tucker()
    err = None
    if res.core.comm.rank == 0:
        rec = np.asarray(tucker.reconstruct().data)
        err = float(np.linalg.norm((rec - FULL).ravel())
                    / np.linalg.norm(FULL.ravel()))
    return {
        "survivors": res.core.comm.size,
        "recoveries": _recoveries(res),
        "err": err,
        "events": res.rank_failures,
        "numeric": res.numeric_recoveries,
    }


def _first_err(res):
    return next(v["err"] for v in res.values
                if v is not None and v["err"] is not None)


class TestSthosvdFaultTolerant:
    def test_clean_run_matches_plain_driver(self):
        res = run_spmd(_sthosvd_prog, 4)
        assert all(v["recoveries"] == 0 for v in res.values)
        assert all(v["survivors"] == 4 for v in res.values)

    def test_acceptance_crash_plus_drops(self):
        base = run_spmd(_sthosvd_prog, 4)
        base_err = _first_err(base)

        plan = FaultPlan(
            seed=42,
            crashes=(CrashRule(rank=1, at_op=20),),  # mid-mode
            messages=(MessageFaultRule(kind="drop", prob=0.01),),
        )
        keys = []
        for _ in range(3):
            res = run_spmd(_sthosvd_prog, 4, faults=plan, resilience=True)
            keys.append(res.faults.trace_key())
            done = [v for v in res.values if v is not None]
            assert len(done) == 3 and res.failed_ranks == [1]
            assert all(v["survivors"] == 3 for v in done)
            assert all(v["recoveries"] == 1 for v in done)
            assert _first_err(res) <= 10 * base_err
            (kind, detail), = done[0]["events"]
            assert kind == "rank_failure" and detail["survivors"] == 3
        assert keys[0] == keys[1] == keys[2]

    def test_crash_of_data_root_recovers(self):
        plan = FaultPlan(seed=8, crashes=(CrashRule(rank=0, at_op=25),))
        res = run_spmd(_sthosvd_prog, 4, faults=plan, resilience=True)
        assert res.failed_ranks == [0]
        done = [v for v in res.values if v is not None]
        assert all(v["survivors"] == 3 for v in done)
        base_err = _first_err(run_spmd(_sthosvd_prog, 4))
        assert _first_err(res) <= 10 * base_err

    def test_max_recoveries_exhausted_reraises(self, monkeypatch):
        monkeypatch.setattr(modeloop, "MAX_RECOVERIES", 0)

        def prog(comm):
            return sthosvd(_distributed(comm), ranks=RANKS,
                           checkpoint=DistributedCheckpoint("sthosvd"))

        plan = FaultPlan(seed=8, crashes=(CrashRule(rank=2, at_op=25),))
        with pytest.raises(RankFailedError):
            run_spmd(prog, 4, faults=plan, resilience=True)


class TestGridFollowsModeOrder:
    """The grid the driver builds, and re-builds after a shrink, puts 1 on
    the mode the run processes first — whichever end that is."""

    @staticmethod
    def _prog(mode_order):
        def prog(comm):
            res = sthosvd(_distributed(comm, mode_order), ranks=RANKS,
                          method="qr", mode_order=mode_order,
                          checkpoint=DistributedCheckpoint("sthosvd"))
            return res.core.comm.size, res.core.grid.dims
        return prog

    @pytest.mark.parametrize("mode_order,grid4,grid3", [
        ("forward", (1, 2, 2), (1, 1, 3)),
        ("backward", (2, 2, 1), (3, 1, 1)),
        ((1, 2, 0), (2, 1, 2), (3, 1, 1)),
    ])
    def test_clean_and_shrunk(self, mode_order, grid4, grid3):
        clean = run_spmd(self._prog(mode_order), 4)
        assert clean.values == [(4, grid4)] * 4
        plan = FaultPlan(seed=8, crashes=(CrashRule(rank=2, at_op=25),))
        res = run_spmd(self._prog(mode_order), 4, faults=plan, resilience=True)
        assert res.failed_ranks == [2]
        assert [v for v in res.values if v is not None] == [(3, grid3)] * 3


class TestNumericDegradation:
    def test_kernel_nan_triggers_guard_not_corruption(self):
        tracer = Tracer()
        plan = FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 0, kind="nan"),
        ))
        base = run_spmd(_sthosvd_prog, 4)
        res = run_spmd(_sthosvd_prog, 4, faults=plan, resilience=True,
                       tracer=tracer)
        assert res.failed_ranks == []
        # Factors stayed finite and the error did not blow up.
        assert _first_err(res) <= 10 * _first_err(base)
        recs = res.values[0]["numeric"]
        assert recs and recs[0].endswith("qr->jacobi")
        # Each escalation is one ft.numeric_recovery span naming its rung.
        actions = [s.attrs["action"] for s in tracer.spans
                   if s.name == "ft.numeric_recovery" and s.rank == 0]
        assert actions == [r.split(":", 1)[1] for r in recs]

    def test_hosvd_parallel_escalates_like_the_other_drivers(self):
        """A NaN injected into one gesvd call must trip the same guard
        in ``hosvd`` on a distributed tensor (it used to call the kernels
        unguarded and return poisoned factors), its communication in
        the tracer's Comm row."""
        from repro.core import hosvd
        from repro.dist import DistributedTensor, GridComms, ProcessorGrid
        from repro.instrument import PHASE_COMM

        def prog(comm):
            comms = GridComms(
                comm, ProcessorGrid.for_size(comm.size, len(SHAPE)))
            dt = DistributedTensor.from_full(comms, FULL)
            res = hosvd(dt, ranks=RANKS, method="qr")
            return {
                "finite": all(bool(np.isfinite(U).all()) for U in res.factors),
                "factors": res.factors,
                "numeric": res.numeric_recoveries,
            }

        tracer = Tracer()
        plan = FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 1, kind="nan"),
        ))
        base = run_spmd(prog, 4)
        res = run_spmd(prog, 4, faults=plan, tracer=tracer)
        assert res.failed_ranks == []
        for got, want in zip(res.values, base.values):
            assert got["finite"]
            assert got["numeric"] == ["mode1:qr->jacobi"]
            # Untouched modes are the same bits; the repaired one is the
            # same subspace from a different triangle solver.
            for n in (0, 2):
                assert got["factors"][n].tobytes() == want["factors"][n].tobytes()
            proj = got["factors"][1] @ got["factors"][1].T
            ref = want["factors"][1] @ want["factors"][1].T
            np.testing.assert_allclose(proj, ref, atol=1e-8)
        assert [s.attrs["action"] for s in tracer.spans
                if s.name == "ft.numeric_recovery"] == ["qr->jacobi"] * 4
        for r in range(4):
            assert tracer.by_phase(r)[PHASE_COMM] > 0

    def test_hooi_keeps_the_escalations_of_its_seed(self):
        """The ST-HOSVD seed of a distributed ``hooi`` runs on HOOI's own
        loop: an escalation in it is the run's, like its flops and
        phases (the seed used to be a separate run whose recoveries and
        timer were dropped)."""
        from repro.core import hooi
        from repro.dist import DistributedTensor, GridComms, ProcessorGrid

        def prog(comm):
            comms = GridComms(
                comm, ProcessorGrid.for_size(comm.size, len(SHAPE)))
            dt = DistributedTensor.from_full(comms, FULL)
            return hooi(dt, RANKS, method="qr", max_iters=2).numeric_recoveries

        plan = FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 0, kind="nan"),
        ))
        res = run_spmd(prog, 2, faults=plan)
        assert res.failed_ranks == []
        assert res.values == [["mode0:qr->jacobi"]] * 2

    def test_persistent_nan_exhausts_ladder(self):
        from repro.dist import DistributedTensor, GridComms
        from repro.dist.grid import ProcessorGrid
        from repro.dist.redistribute import distribute_from_root
        from repro.faults.guards import guarded_mode_svd

        def prog(comm):
            grid = ProcessorGrid.for_size(comm.size, len(SHAPE))
            comms = GridComms(comm, grid)
            dt = distribute_from_root(
                comms, FULL if comm.rank == 0 else None, root=0)
            with pytest.raises(ConvergenceError, match="non-finite"):
                guarded_mode_svd(dt, 0, method="qr")
            return "raised"

        # Corrupt the primary gesvd AND the Jacobi fallback's kernels:
        # every rung of the float64 ladder stays non-finite.
        plan = FaultPlan(seed=0, kernels=tuple(
            KernelFaultRule(k, i, kind="nan")
            for k in ("gesvd", "geqr", "gelq")
            for i in range(6)
        ))
        res = run_spmd(prog, 4, faults=plan)
        assert all(v == "raised" for v in res.values)


class TestHooiFaultTolerant:
    def test_crash_mid_sweep_recovers(self):
        def prog(comm):
            res = hooi(_distributed(comm), RANKS, method="gram", max_iters=4,
                       checkpoint=DistributedCheckpoint("hooi"))
            fit = res.final_fit if res.core.comm.rank == 0 else None
            return (res.core.comm.size, _recoveries(res),
                    res.iterations, fit)

        base = run_spmd(prog, 4)
        base_fit = base.values[0][3]

        plan = FaultPlan(seed=9, crashes=(CrashRule(rank=2, at_op=60),))
        res = run_spmd(prog, 4, faults=plan, resilience=True)
        done = [v for v in res.values if v is not None]
        assert res.failed_ranks == [2]
        assert all(v[0] == 3 and v[1] == 1 for v in done)
        fit = next(v[3] for v in done if v[3] is not None)
        assert fit == pytest.approx(base_fit, rel=1e-9)


class TestRecoveryWithoutResilience:
    """A rank failure is survived by ``checkpoint=`` alone: ``resilience=``
    tolerates message faults and is not passed here, so every wait of
    the recovery (the revoke, the shrink, the re-grid's split) is woken
    by the failure notice itself."""

    @staticmethod
    def _sthosvd(comm):
        res = sthosvd(_distributed(comm), ranks=RANKS, method="qr",
                      checkpoint=DistributedCheckpoint("sthosvd"))
        return res.core.comm.size, _recoveries(res), res.sigmas

    @staticmethod
    def _hooi(comm):
        res = hooi(_distributed(comm), RANKS, method="gram", max_iters=4,
                   checkpoint=DistributedCheckpoint("hooi"))
        return res.core.comm.size, _recoveries(res), res.final_fit

    @pytest.mark.parametrize("backend", ["threads", "sockets"])
    @pytest.mark.parametrize("driver,at_op", [("sthosvd", 12), ("hooi", 40)])
    def test_crash_recovers_onto_three_ranks(self, driver, at_op, backend):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=2, at_op=at_op),))
        out = run_spmd(getattr(self, "_" + driver), 4, backend=backend,
                       faults=plan)
        assert out.failed_ranks == [2]
        assert [v and v[:2] for v in out.values] == [(3, 1), (3, 1), None,
                                                     (3, 1)]
        eps = np.finfo(np.float64).eps
        got = out.values[0][2]
        if driver == "sthosvd":
            # Thm. 1: QR-SVD's singular values sit O(eps ||A||) from the
            # uninterrupted run's.
            ref = sthosvd(FULL, ranks=RANKS, method="qr").sigmas
            assert sorted(got) == sorted(ref)
            for mode, r in ref.items():
                assert np.abs(got[mode] - r).max() <= 50 * eps * r[0]
        else:
            # Thm. 2: Gram-SVD resolves O(sqrt(eps) ||A||), and so the fit.
            ref = hooi(FULL, RANKS, method="gram", max_iters=4).final_fit
            assert abs(got - ref) <= 50 * np.sqrt(eps)
