"""Elastic recovery: rank replacement, durable checkpoints, restart.

PR 10's acceptance surface.  ``recover="replace"`` must survive a
mid-mode rank kill (and a kill of the replacement itself) with the
world keeping its original shape and the factors bitwise-identical to
the fault-free run; the durable checkpoint tier must restart a brand
new invocation from disk with the same bitwise guarantee, and refuse
manifests that belong to a different input or world shape.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro.core.ft import sthosvd_fault_tolerant
from repro.dist.dtensor import GridComms
from repro.dist.grid import ProcessorGrid
from repro.dist.redistribute import distribute_from_root
from repro.errors import CheckpointError, RankFailedError
from repro.faults import CrashRule, DistributedCheckpoint, FaultPlan
from repro.mpi import run_spmd

SHAPE = (12, 10, 8)
RANKS = (4, 3, 2)
FULL = np.asfortranarray(np.random.default_rng(7).standard_normal(SHAPE))


def _prog(comm, recover="replace", ckpt_dir=None, full=None,
          max_recoveries=2):
    res = sthosvd_fault_tolerant(
        comm, (FULL if full is None else full) if comm.rank == 0 else None,
        ranks=RANKS, method="qr", recover=recover, ckpt_dir=ckpt_dir,
        max_recoveries=max_recoveries,
    )
    return {
        "survivors": res.comm.size,
        "recoveries": res.recoveries,
        "events": res.events,
        "factors": [np.asarray(f).copy() for f in res.result.factors],
    }


def _done(res):
    vals = [v for v in res.values if v is not None]
    assert vals, "no rank completed"
    return vals


def _assert_factors_equal(vals, base, what):
    for v in vals:
        for a, b in zip(base, v["factors"]):
            assert np.array_equal(a, b), f"factors differ ({what})"


_CRASH = FaultPlan(seed=3, crashes=(CrashRule(rank=1, at_op=25),))


class TestReplaceRecovery:
    def test_replace_keeps_world_shape_and_is_bitwise(self):
        base = _done(run_spmd(_prog, 4, resilience=True))[0]
        assert base["recoveries"] == 0

        res = run_spmd(_prog, 4, faults=_CRASH, resilience=True)
        vals = _done(res)
        assert len(vals) == 4  # the replacement finished too
        assert all(v["survivors"] == 4 for v in vals)
        assert all(v["recoveries"] >= 1 for v in vals)
        _assert_factors_equal(vals, base["factors"], "replace")
        kind, detail = vals[0]["events"][-1]
        assert kind == "rank_failure"
        assert detail["mode"] == "replace" and detail["survivors"] == 4

    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    def test_replace_backends(self, backend):
        base = _done(run_spmd(_prog, 4, resilience=True, backend=backend))[0]
        res = run_spmd(_prog, 4, faults=_CRASH, resilience=True,
                       backend=backend)
        vals = _done(res)
        assert len(vals) == 4
        assert all(v["survivors"] == 4 for v in vals)
        _assert_factors_equal(vals, base["factors"], f"replace on {backend}")

    def test_replacement_killed_too(self):
        """repeat=2 kills the respawned incarnation as well."""
        base = _done(run_spmd(_prog, 4, resilience=True))[0]
        plan = FaultPlan(seed=3, crashes=(
            CrashRule(rank=1, at_op=25, repeat=2),))
        res = run_spmd(_prog, 4, faults=plan, resilience=True)
        vals = _done(res)
        assert len(vals) == 4
        assert all(v["survivors"] == 4 for v in vals)
        _assert_factors_equal(vals, base["factors"], "double kill")

    def test_replayed_plan_yields_identical_recovery_sequence(self):
        runs = [run_spmd(_prog, 4, faults=_CRASH, resilience=True)
                for _ in range(2)]
        keys = [r.faults.trace_key() for r in runs]
        assert keys[0] == keys[1]
        seqs = [[(k, d.get("mode"), d.get("survivors"), d.get("resumed_step"))
                 for k, d in _done(r)[0]["events"]] for r in runs]
        assert seqs[0] == seqs[1]


class TestDurableCheckpoints:
    def test_manifest_contents_and_commit_discipline(self, tmp_path):
        run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
        manifests = sorted(glob.glob(str(tmp_path / "*-manifest-*.json")))
        assert manifests
        with open(manifests[-1]) as fh:
            man = json.load(fh)
        assert man["schema"] == "repro-dckpt/2"
        assert man["nprocs"] == 4
        assert man["input_shape"] == list(SHAPE)
        assert man["input_dtype"] == "float64"
        # Every shard the manifest names must exist: the manifest is
        # written last, so a committed manifest implies complete shards.
        for owner, files in man["shards"].items():
            for kind in ("own", "buddy"):
                assert os.path.exists(tmp_path / files[kind]), (owner, kind)

    def test_restart_from_disk_is_bitwise(self, tmp_path):
        base = _done(run_spmd(_prog, 4, resilience=True))[0]
        # A crashed-and-recovered run leaves durable checkpoints behind.
        run_spmd(_prog, 4, "replace", str(tmp_path), faults=_CRASH,
                 resilience=True)
        # A brand-new world pointed at the directory resumes from the
        # newest committed manifest and lands on identical factors.
        res = run_spmd(_prog, 4, "replace", str(tmp_path), resilience=True)
        vals = _done(res)
        assert len(vals) == 4
        assert all("disk_resume" in [e[0] for e in v["events"]]
                   for v in vals)
        _assert_factors_equal(vals, base["factors"], "disk restart")

    def test_manifest_round_trip_across_backends(self, tmp_path):
        """Shards written by the threads backend restart under procs."""
        base = _done(run_spmd(_prog, 4, resilience=True))[0]
        run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
        res = run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True,
                       backend="procs")
        vals = _done(res)
        assert all("disk_resume" in [e[0] for e in v["events"]]
                   for v in vals)
        _assert_factors_equal(vals, base["factors"], "cross-backend resume")

    def test_refuses_world_shape_mismatch(self, tmp_path):
        run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
        with pytest.raises(CheckpointError, match="4 ranks"):
            run_spmd(_prog, 2, "shrink", str(tmp_path), resilience=True)

    def test_refuses_input_mismatch(self, tmp_path):
        run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
        other = FULL.astype(np.float32)
        with pytest.raises(CheckpointError, match="float64"):
            run_spmd(_prog, 4, "shrink", str(tmp_path), other,
                     resilience=True)


def _checkpoint_mid_run(tmp_path):
    """A directory whose newest manifest is one mode short of the end,
    as a world killed during the last mode would leave it; the manifest."""
    run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
    manifests = sorted(glob.glob(str(tmp_path / "*-manifest-*.json")))
    assert len(manifests) == 2  # keep=2
    os.remove(manifests[-1])
    with open(manifests[0]) as fh:
        return json.load(fh)


def _resume_verdicts(comm, ckpt_dir):
    """What ``resume_from_disk`` tells each rank (no driver around it)."""
    ckpt = DistributedCheckpoint("sthosvd", ckpt_dir=ckpt_dir)
    try:
        step, _meta, full = ckpt.resume_from_disk(comm)
    except CheckpointError as exc:
        return "refused: " + str(exc)
    return step, full is not None


class TestDurableShards:
    """The shard format: checksummed, pickle-free, own copy then buddy."""

    @pytest.fixture()
    def base(self):
        return _done(run_spmd(_prog, 4, resilience=True))[0]

    def _resumed(self, tmp_path, base, what):
        vals = _done(run_spmd(_prog, 4, "shrink", str(tmp_path),
                              resilience=True))
        events = [e for e in vals[0]["events"] if e[0] == "disk_resume"]
        assert [e[1]["resumed_step"] for e in events] == [2]
        _assert_factors_equal(vals, base["factors"], what)

    def test_truncated_own_shard_falls_back_to_buddy(self, tmp_path, base):
        man = _checkpoint_mid_run(tmp_path)
        for owner in ("0", "2"):
            path = tmp_path / man["shards"][owner]["own"]
            path.write_bytes(path.read_bytes()[:-9])
        self._resumed(tmp_path, base, "truncated own shards")

    def test_flipped_byte_in_a_block_is_caught_by_the_crc(self, tmp_path,
                                                           base):
        """The length is right and the bytes still parse as floats —
        only the checksum can tell; the buddy copy is used instead."""
        man = _checkpoint_mid_run(tmp_path)
        own = man["shards"]["1"]["own"]
        path = tmp_path / own
        blob = bytearray(path.read_bytes())
        assert len(blob) == man["checks"][own][0]
        header_len = int.from_bytes(blob[:4], "little")
        blob[4 + header_len + 3] ^= 0x10  # in the first array: the block
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            from repro.util.durable import read_shard

            read_shard(str(path), *man["checks"][own])
        self._resumed(tmp_path, base, "bit flip in own shard")

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_both_copies_bad_is_refused_on_every_rank(self, tmp_path,
                                                      backend):
        man = _checkpoint_mid_run(tmp_path)
        for kind in ("own", "buddy"):
            path = tmp_path / man["shards"]["3"][kind]
            path.write_bytes(path.read_bytes()[:100])
        res = run_spmd(_resume_verdicts, 4, str(tmp_path), backend=backend,
                       recv_timeout=30.0)
        assert len(res.values) == 4
        assert all(v.startswith("refused: ") and "both copies of shard 3" in v
                   for v in res.values)

    def test_intact_directory_resumes_without_the_driver(self, tmp_path):
        _checkpoint_mid_run(tmp_path)
        res = run_spmd(_resume_verdicts, 4, str(tmp_path))
        assert res.values == [(2, True), (2, False), (2, False), (2, False)]

    def test_old_pickle_format_is_refused_naming_both_schemas(self, tmp_path):
        man = _checkpoint_mid_run(tmp_path)
        path = glob.glob(str(tmp_path / "*-manifest-*.json"))[0]
        with open(path, "w") as fh:
            json.dump(dict(man, schema="repro-dckpt/1"), fh)
        with pytest.raises(CheckpointError) as exc:
            run_spmd(_prog, 4, "shrink", str(tmp_path), resilience=True)
        assert "repro-dckpt/1" in str(exc.value)
        assert "repro-dckpt/2" in str(exc.value)

    def test_resume_never_unpickles(self, tmp_path, base, monkeypatch):
        import pickle

        def refuse(*args, **kwargs):
            raise AssertionError("unpickled bytes read from disk")

        _checkpoint_mid_run(tmp_path)
        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        self._resumed(tmp_path, base, "resume with pickle disabled")


def _two_crash_prog(comm):
    """Manual shrink loop: save once, survive two sequential crashes.

    The regression this guards: after the first shrink, entries whose
    buddy died are single-copy; without :meth:`DistributedCheckpoint.
    rebalance` the second crash can take the last copy and recovery
    fails with an incomplete checkpoint.
    """
    grid = ProcessorGrid.for_size(comm.size, FULL.ndim)
    comms = GridComms(comm, grid)
    dt = distribute_from_root(comms, FULL if comm.rank == 0 else None, root=0)
    ckpt = DistributedCheckpoint("rb", keep=2)
    ckpt.save(dt, 0, {"tag": "seed"})
    recoveries, moved = 0, []
    pending = False
    while True:
        try:
            if pending:
                comm.revoke()
                comm = comm.shrink()
                ckpt.recover(comm, root=0)
                moved.append(ckpt.rebalance(comm))
                pending = False
            for _ in range(120):
                comm.barrier()
            step, meta, recovered = ckpt.recover(comm, root=0)
            ok = None
            if comm.rank == 0:
                ok = bool(np.array_equal(recovered, FULL))
            return {"size": comm.size, "recoveries": recoveries,
                    "moved": moved, "ok": ok, "step": step}
        except RankFailedError:
            recoveries += 1
            if recoveries > 3:
                raise
            pending = True


class TestBuddyRebalance:
    def test_two_sequential_crashes_keep_every_block(self):
        plan = FaultPlan(seed=5, crashes=(
            CrashRule(rank=1, at_op=30),
            CrashRule(rank=2, at_op=90),
        ))
        res = run_spmd(_two_crash_prog, 4, faults=plan, resilience=True)
        vals = _done(res)
        assert sorted(res.failed_ranks) == [1, 2]
        assert all(v["size"] == 2 and v["recoveries"] == 2 for v in vals)
        # The first rebalance re-replicated at least one orphaned entry
        # (rank 1 was both an owner and rank 0's buddy).
        assert all(v["moved"][0] > 0 for v in vals)
        assert any(v["ok"] for v in vals)


class TestMaxRecoveriesExhausted:
    def test_original_error_carries_recovery_history(self):
        """Exhaustion re-raises the first failure, not the last retry's."""
        plan = FaultPlan(seed=3, crashes=(
            CrashRule(rank=1, at_op=25, repeat=4),))
        with pytest.raises(RankFailedError) as ei:
            run_spmd(_prog, 4, "replace", None, None, 1,
                     faults=plan, resilience=True)
        history = getattr(ei.value, "recovery_history", None)
        assert isinstance(history, tuple) and history
        assert history[0][0] == "rank_failure"
        assert history[0][1]["mode"] == "replace"


class TestObservability:
    def test_postmortem_carries_recovery_log(self):
        from repro.obs.postmortem import build_postmortem, render_postmortem

        class _Ctx:
            world_size = 2
            abort_reason = None
            recorder = None
            telemetry = None
            last_deadlock = None
            faults = None
            transport = None
            rank_incarnations = [0, 1]

            class abort_event:
                @staticmethod
                def is_set():
                    return False

            @staticmethod
            def failed_ranks():
                return []

            @staticmethod
            def rank_status(rank):
                return "finalized"

            @staticmethod
            def mailboxes():
                return []

            @staticmethod
            def recovery_events():
                return [{"action": "respawn", "world_rank": 1,
                         "incarnation": 1, "time": 12.5}]

        bundle = build_postmortem(_Ctx())
        json.dumps(bundle)
        assert bundle["recovery"][0]["action"] == "respawn"
        assert bundle["rank_incarnations"] == [0, 1]
        text = render_postmortem(bundle)
        assert "recovery (1 action" in text
        assert "respawn" in text
        assert "rank incarnations" in text

    def test_telemetry_reports_incarnations(self):
        from repro.obs.telemetry import TelemetryHub

        class _Ctx:
            world_size = 2
            abort_reason = None
            rank_incarnations = [0, 2]
            recovery_log = None

            class abort_event:
                @staticmethod
                def is_set():
                    return False

            @staticmethod
            def failed_ranks():
                return []

            @staticmethod
            def rank_status(rank):
                return "running"

            @staticmethod
            def recovery_events():
                return [{"action": "respawn"}, {"action": "replace_commit"}]

        hub = TelemetryHub()
        hub.attach(_Ctx(), backend="threads")
        snap = hub.snapshot()
        assert snap["ranks"]["1"]["incarnation"] == 2
        assert snap["recoveries"] == 2
        text = hub.render(snap)
        assert "recoveries=2" in text
        assert "inc" in text


class TestChaosReplaceCLI:
    def test_chaos_replace_with_durable_tier(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["chaos", "--shape", "8", "6", "4", "--procs", "2",
                   "--ranks", "3", "2", "2", "--replays", "2",
                   "--recover", "replace", "--ckpt-dir", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "all scenarios ok" in printed
        assert "FAIL" not in printed
        # Replays got their own checkpoint directories, each committed.
        assert glob.glob(str(tmp_path / "crash-rank0-r0" / "*-manifest-*"))
        assert glob.glob(str(tmp_path / "crash-rank0-r1" / "*-manifest-*"))
