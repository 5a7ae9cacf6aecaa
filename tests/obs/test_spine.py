"""The event spine: one per-rank event stream under CommTrace, Tracer
and FlightRecorder.

* observers are independent — each sees the same stream alone as with
  the other two bound, on every backend, and the shard loop that ships
  a worker process's share home loses nothing;
* an un-observed world never reaches ``emit``;
* every artifact carries the resolved run configuration.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.errors import RankFailedError
from repro.faults import CrashRule, FaultPlan
from repro.mpi import CommTrace, available_backends, run_spmd
from repro.obs import (
    FlightRecorder,
    Tracer,
    chrome_trace,
    trace_span,
)
from repro.obs.tracer import NULL_SPAN

BACKENDS = list(available_backends())
_X = low_rank_tensor((8, 12, 6), (2, 4, 3), rng=9, noise=1e-9)


def _solve(comm):
    comms = GridComms(comm, ProcessorGrid((2, 2, 1)))
    dt = DistributedTensor.from_full(comms, _X.data)
    return sthosvd(dt, tol=1e-6, method="qr").ranks


def _observed(backend, *names):
    """One seeded P=4 solve under the named observers; what each saw."""
    made = {"comm_trace": CommTrace(), "tracer": Tracer(),
            "recorder": FlightRecorder(capacity=1 << 16)}
    on = {name: made[name] for name in names}
    run_spmd(_solve, 4, backend=backend, **on)
    seen = {}
    if "comm_trace" in on:
        seen["comm_trace"] = on["comm_trace"].to_dict()
    if "tracer" in on:
        seen["tracer"] = Counter(
            (s.name, s.rank, s.phase, s.mode, s.depth, s.self_nested)
            for s in on["tracer"].spans)
    if "recorder" in on:
        seen["recorder"] = {
            rank: [(e[2], e[3]) for e in on["recorder"].events(rank)]
            for rank in range(4)}
    return seen


class TestObserversAreIndependent:
    def test_alone_or_together_on_every_backend_the_stream_is_the_same(self):
        ref = _observed("threads", "comm_trace", "tracer", "recorder")
        assert ref["comm_trace"]["totals"]["sent_messages"] > 0
        assert ref["comm_trace"]["totals"]["recv_messages"] == \
            ref["comm_trace"]["totals"]["sent_messages"]
        assert any(name.startswith("comm.") for name, *_ in ref["tracer"])
        # Dispatch events fed the schedule tally, once per rank (a bcast
        # counts at its root only, so it is left out of the check).
        schedules = ref["comm_trace"]["schedules"]
        assert {"alltoall:pairwise", "reduce_scatter:ring"} <= set(schedules)
        assert all(s["dispatches"] % 4 == 0 for name, s in schedules.items()
                   if not name.startswith("bcast:"))
        kinds = {kind for kind, _ in ref["recorder"][0]}
        assert {"send", "recv", "dispatch", "span.open", "span.close"} <= kinds
        for backend in BACKENDS:
            together = _observed(backend, "comm_trace", "tracer", "recorder")
            assert together == ref, backend
            for name in ("comm_trace", "tracer", "recorder"):
                alone = _observed(backend, name)
                for key, value in alone.items():
                    assert value == ref[key], (backend, name, key)


class TestUnobserved:
    def test_an_unobserved_world_never_reaches_emit(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("emit reached with no observer bound")

        monkeypatch.setattr("repro.mpi.communicator.emit", boom)
        monkeypatch.setattr("repro.obs.recorder.emit", boom)

        def prog(comm):
            assert trace_span("kernel") is NULL_SPAN
            other = (comm.rank + 1) % comm.size
            req = comm.irecv((comm.rank - 1) % comm.size, tag=1)
            comm.send(np.ones(4), other, tag=1)
            req.wait()
            comm.allreduce(np.ones(4))
            comm.bcast(np.ones(4) if comm.rank == 0 else None)
            comm.split(color=comm.rank % 2)
            return _solve(comm)

        res = run_spmd(prog, 4, resilience=True)
        assert len(set(map(tuple, res.values))) == 1


class TestReliabilityEventsReachEveryObserver:
    def test_drop_retry_and_checksum_are_one_event_each(self):
        from repro.faults import MessageFaultRule

        plan = FaultPlan(seed=3, messages=[
            MessageFaultRule("drop", 0.3),
            MessageFaultRule("corrupt", 0.3),
        ])
        trace, rec = CommTrace(), FlightRecorder(capacity=1 << 14)

        def prog(comm):
            other = 1 - comm.rank
            for i in range(20):
                comm.sendrecv(np.full(16, float(i)), other, tag=i)

        run_spmd(prog, 2, faults=plan, resilience=True, comm_trace=trace,
                 recorder=rec)
        events = [e for r in (0, 1) for e in rec.events(r)]
        for kind, tally in (("drop", trace.dropped_messages()),
                            ("retry", trace.retried_messages()),
                            ("checksum", trace.checksum_failures())):
            assert tally > 0
            assert sum(1 for e in events if e[2] == kind) == tally


# ----------------------------------------------------------------------
# Resolved run configuration, one test per artifact
# ----------------------------------------------------------------------
def _expect_config(cfg, backend, **enabled):
    assert cfg["backend"] == backend and cfg["nprocs"] == 2
    assert cfg["recv_timeout"] == 30.0
    assert cfg["tuning"] == {"allreduce_ring_min_bytes": 262144}
    want = dict.fromkeys(("tracer", "recorder", "comm_trace", "sanitize",
                          "faults", "resilience"), False)
    want.update(enabled)
    assert cfg["enabled"] == want
    assert cfg["env"] == {"REPRO_SPINE_TEST": "1"}


@pytest.fixture
def repro_env(monkeypatch):
    import os

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_SPINE_TEST", "1")


class TestRunConfigInEveryArtifact:
    def test_chrome_trace_metadata(self, repro_env):
        tracer = Tracer()
        assert "run_config" not in chrome_trace(tracer)["otherData"]
        run_spmd(lambda comm: comm.barrier(), 2, tracer=tracer,
                 sanitize=True, recv_timeout=30.0)
        doc = chrome_trace(tracer, metadata={"backend": "threads"})
        _expect_config(doc["otherData"]["run_config"], "threads",
                       tracer=True, sanitize=True)
        assert {"commit", "generated_unix", "host", "backend"} <= \
            set(doc["otherData"])

    def test_postmortem_bundle(self, repro_env, tmp_path):
        import json

        def prog(comm):
            comm.sendrecv(np.ones(2), 1 - comm.rank, tag=5)

        rec = FlightRecorder(postmortem_dir=str(tmp_path))
        with pytest.raises(RankFailedError):
            run_spmd(prog, 2, recorder=rec, recv_timeout=30.0,
                     faults=FaultPlan(crashes=[CrashRule(rank=0, at_op=1)]))
        bundle = rec.last_postmortem
        assert bundle["schema"] == "repro-postmortem/1"
        _expect_config(bundle["run_config"], "threads",
                       recorder=True, faults=True)
        with open(rec.last_postmortem_path) as fh:
            assert json.load(fh)["run_config"] == bundle["run_config"]
