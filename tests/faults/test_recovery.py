"""Revoke/shrink recovery and the buddy-replicated distributed checkpoint."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.errors import CheckpointError, CommRevokedError, RankFailedError
from repro.faults import CrashRule, DistributedCheckpoint, FaultPlan
from repro.dist import DistributedTensor, GridComms
from repro.dist.grid import ProcessorGrid
from repro.dist.redistribute import distribute_from_root
from repro.mpi import run_spmd
from repro.obs import Tracer

SHAPE = (8, 6, 4)
FULL = np.asfortranarray(
    np.random.default_rng(0).standard_normal(SHAPE)
)


def _relaid(comm, ndim=FULL.ndim):
    return GridComms(comm, ProcessorGrid.for_size(comm.size, ndim))


def _distribute(comm, full=FULL):
    return distribute_from_root(_relaid(comm, full.ndim),
                                full if comm.rank == 0 else None, root=0)


def _survive_and_shrink(comm):
    """Barrier until the injected crash hits, then revoke + shrink."""
    try:
        for _ in range(400):
            comm.barrier()
    except RankFailedError:
        comm.revoke()
    return comm.shrink()


class TestShrink:
    def test_shrink_renumbers_survivors_densely(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=1, at_op=30),))

        def prog(comm):
            new = _survive_and_shrink(comm)
            total = new.allreduce(np.array([new.rank]))
            return (new.rank, new.size, int(total[0]))

        res = run_spmd(prog, 4, faults=plan, resilience=True)
        done = [v for v in res.values if v is not None]
        assert sorted(v[0] for v in done) == [0, 1, 2]
        assert all(v[1] == 3 for v in done)
        assert all(v[2] == 3 for v in done)  # 0+1+2 over the new world

    def test_revoked_epoch_raises_for_stragglers(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=2, at_op=10),))

        def prog(comm):
            new = _survive_and_shrink(comm)
            # The old world is revoked: any further op on it must fail
            # fast rather than hang waiting for the dead rank.
            with pytest.raises(CommRevokedError):
                comm.barrier()
            return new.size

        res = run_spmd(prog, 4, faults=plan, resilience=True)
        assert [v for v in res.values if v is not None] == [3, 3, 3]


class TestDistributedCheckpoint:
    def test_save_recover_roundtrip_after_death(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=2, at_op=60),))

        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("rt")
            ckpt.save(dt, 1, meta={"mark": 17})
            new = _survive_and_shrink(comm)
            step, meta, dt = ckpt.recover(_relaid(new))
            ok = bool(np.array_equal(dt.gather().data, FULL))
            return (step, meta["mark"], ok)

        res = run_spmd(prog, 4, faults=plan, resilience=True)
        done = [v for v in res.values if v is not None]
        assert all(v[0] == 1 and v[1] == 17 for v in done)
        assert any(v[2] is True for v in done)

    def test_newest_complete_step_wins(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=1, at_op=80),))

        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("steps", keep=3)
            ckpt.save(dt, 1, meta={"step": 1})
            ckpt.save(dt, 2, meta={"step": 2})
            new = _survive_and_shrink(comm)
            step, meta, _ = ckpt.recover(_relaid(new))
            return (step, meta["step"])

        res = run_spmd(prog, 4, faults=plan, resilience=True)
        assert all(v == (2, 2) for v in res.values if v is not None)

    def test_rank_and_buddy_both_dead_is_unrecoverable(self):
        # Rank 2's block is replicated to rank 3 (its ring buddy);
        # killing both loses the only two copies.
        plan = FaultPlan(seed=0, crashes=(
            CrashRule(rank=2, at_op=60), CrashRule(rank=3, at_op=60),
        ))

        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("lost")
            ckpt.save(dt, 1, meta={})
            # The two victims die at their own op counts, so one may
            # still be alive at the first shrink: keep absorbing
            # failures until only ranks 0 and 1 remain.
            new = comm
            while new.size > 2:
                new = _survive_and_shrink(new)
            with pytest.raises(CheckpointError, match="no complete step"):
                ckpt.recover(_relaid(new))
            return "checked"

        res = run_spmd(prog, 4, faults=plan, resilience=True)
        assert res.values.count("checked") == 2

    def test_prune_respects_keep(self):
        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("pr", keep=1)
            for step in (1, 2, 3):
                ckpt.save(dt, step, meta={"step": step})
            held = {
                key[2] for key in comm.context.node_store(comm.world_rank)
                if key[0] == "pr"
            }
            return held

        res = run_spmd(prog, 4)
        # keep=1: after saving step 3, steps <= 2 are pruned.
        assert all(v == {3} for v in res.values)

    def test_lock_free_slots_under_concurrent_saves(self):
        """The threads backend's node store has no lock: each rank's
        slot is touched by its own thread alone.  Eight ranks saving 200
        steps at once each end with exactly their own and their buddy's
        entries for the last ``keep`` steps, each holding its owner's
        block."""
        steps, keep, nprocs = 200, 2, 8

        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("stress", keep=keep)
            for step in range(1, steps + 1):
                ckpt.save(dt, step, meta={"step": step})
            store = comm.context.node_store(comm.world_rank)
            return {key: (entry["slices"], entry["block"])
                    for key, entry in store.items()}, dt.local_slices()

        # Switch threads every microsecond, so the saves interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = run_spmd(prog, nprocs, backend="threads", recv_timeout=60)
        finally:
            sys.setswitchinterval(interval)
        slices = [tuple((s.start, s.stop) for s in v[1]) for v in res.values]
        for rank, (held, _) in enumerate(res.values):
            owners = (rank, (rank - 1) % nprocs)
            assert sorted(held) == sorted(
                ("stress", 0, step, owner)
                for step in range(steps - keep + 1, steps + 1)
                for owner in owners)
            for (_, _, _, owner), (where, block) in held.items():
                assert where == slices[owner]
                np.testing.assert_array_equal(
                    block, FULL[tuple(slice(a, b) for a, b in where)])


class TestSanitizerInterplay:
    """S4: recovery under tracer AND sanitizer must not misfire."""

    def test_recovery_with_tracer_and_sanitizer(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=1, at_op=40),))
        tracer = Tracer()

        def prog(comm):
            dt = _distribute(comm)
            ckpt = DistributedCheckpoint("s4")
            ckpt.save(dt, 1, meta={"ok": True})
            new = _survive_and_shrink(comm)
            step, meta, _ = ckpt.recover(_relaid(new))
            return (new.size, step)

        res = run_spmd(prog, 4, faults=plan, resilience=True,
                       tracer=tracer, sanitize=True)
        done = [v for v in res.values if v is not None]
        assert done == [(3, 1), (3, 1), (3, 1)]
        # A shrink is not a collective mismatch, and the dead rank's
        # undelivered messages must not hard-fail finalization.
        kinds = [f.kind for f in res.sanitizer.findings]
        assert "collective-mismatch" not in kinds
        assert all(
            f.severity == "warning" for f in res.sanitizer.findings
        ), kinds
        assert len(tracer.spans) > 0
