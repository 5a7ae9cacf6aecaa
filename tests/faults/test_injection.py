"""Runtime fault injection: message faults, crashes, reliability counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError, RankFailedError
from repro.faults import (
    CrashRule,
    FaultPlan,
    KernelFaultRule,
    MessageFaultRule,
)
from repro.mpi import CommTrace, run_spmd
from repro.mpi.tracing import CommTrace as _CommTrace
from repro.obs import Tracer, chrome_trace


def _pingpong(comm, rounds=20):
    data = np.arange(64, dtype=np.float64)
    out = []
    for i in range(rounds):
        if comm.rank == 0:
            comm.send(data * i, 1, tag=4)
            out.append(comm.recv(1, tag=5))
        else:
            out.append(comm.recv(0, tag=4))
            comm.send(data * i, 0, tag=5)
    return np.sum(out)


class TestMessageFaults:
    def test_drops_are_retried_transparently(self):
        plan = FaultPlan(seed=2, messages=(
            MessageFaultRule(kind="drop", prob=0.3),
        ))
        clean = run_spmd(_pingpong, 2)
        trace = CommTrace()
        faulty = run_spmd(_pingpong, 2, faults=plan, resilience=True,
                          comm_trace=trace)
        assert faulty.values == clean.values
        assert trace.dropped_messages() > 0
        assert trace.retried_messages() >= trace.dropped_messages()

    def test_corruption_is_detected_by_checksums(self):
        plan = FaultPlan(seed=7, messages=(
            MessageFaultRule(kind="corrupt", prob=0.4),
        ))
        clean = run_spmd(_pingpong, 2)
        trace = CommTrace()
        faulty = run_spmd(_pingpong, 2, faults=plan, resilience=True,
                          comm_trace=trace)
        assert faulty.values == clean.values
        assert trace.checksum_failures() > 0

    def test_corruption_without_checksums_changes_data(self):
        """Without resilience nothing is checksummed: the corrupted
        copies are delivered as they are."""
        plan = FaultPlan(seed=7, messages=(
            MessageFaultRule(kind="corrupt", prob=0.4),
        ))
        clean = run_spmd(_pingpong, 2)
        faulty = run_spmd(_pingpong, 2, faults=plan)
        assert faulty.values != clean.values

    def test_duplicates_are_deduplicated(self):
        plan = FaultPlan(seed=5, messages=(
            MessageFaultRule(kind="duplicate", prob=0.5),
        ))
        clean = run_spmd(_pingpong, 2)
        faulty = run_spmd(_pingpong, 2, faults=plan, resilience=True)
        assert faulty.values == clean.values
        assert any(e.kind == "duplicate" for e in faulty.faults.trace)

    def test_all_drops_exhaust_retry_budget(self):
        plan = FaultPlan(seed=1, messages=(
            MessageFaultRule(kind="drop", prob=1.0),
        ))
        with pytest.raises(CommunicatorError,
                           match="lost after 16 retransmissions"):
            run_spmd(_pingpong, 2, faults=plan, resilience=True)


class TestCrash:
    def test_uncaught_failure_propagates(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=1, at_op=5),))
        with pytest.raises(RankFailedError):
            run_spmd(_pingpong, 2, faults=plan, resilience=True)

    def test_victim_reported_not_reraised(self):
        plan = FaultPlan(seed=0, crashes=(CrashRule(rank=1, at_op=3),))

        def prog(comm):
            try:
                return _pingpong(comm, rounds=10)
            except RankFailedError:
                return "survived"

        res = run_spmd(prog, 2, faults=plan, resilience=True)
        assert res.failed_ranks == [1]
        assert res.values[1] is None
        assert res.values[0] == "survived"
        assert [e.kind for e in res.faults.trace] == ["crash"]


class TestKernelFaults:
    def test_kernel_fault_fires_on_all_ranks_by_default(self):
        from repro.linalg.svd import qr_svd

        def prog(comm):
            rng = np.random.default_rng(0)  # same matrix on every rank
            U, _ = qr_svd(rng.standard_normal((6, 40)))
            return bool(np.isnan(U).any())

        plan = FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 0, kind="nan"),
        ))
        res = run_spmd(prog, 3, faults=plan)
        assert res.values == [True, True, True]
        assert len(res.faults.trace) == 3

    def test_kernel_fault_respects_rank_filter(self):
        from repro.linalg.svd import qr_svd

        def prog(comm):
            rng = np.random.default_rng(0)
            U, _ = qr_svd(rng.standard_normal((6, 40)))
            return bool(np.isnan(U).any())

        plan = FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 0, kind="nan", ranks=(2,)),
        ))
        res = run_spmd(prog, 3, faults=plan)
        assert res.values == [False, False, True]


class TestReliabilityCounters:
    def _faulty_trace(self):
        plan = FaultPlan(seed=2, messages=(
            MessageFaultRule(kind="drop", prob=0.3),
            MessageFaultRule(kind="corrupt", prob=0.2),
        ))
        trace = _CommTrace()
        run_spmd(_pingpong, 2, faults=plan, resilience=True, comm_trace=trace)
        return trace

    def test_counters_surface_in_table_and_dict(self):
        trace = self._faulty_trace()
        d = trace.to_dict()
        assert d["totals"]["dropped_messages"] > 0
        assert d["totals"]["retried_messages"] > 0
        table = trace.as_table()
        assert "dropped" in table and "retried" in table

    def test_clean_run_table_omits_reliability_columns(self):
        trace = _CommTrace()
        run_spmd(_pingpong, 2, comm_trace=trace)
        assert "dropped" not in trace.as_table()

    def test_chrome_reliability_counter(self):
        trace = self._faulty_trace()
        doc = chrome_trace(Tracer(), comm_trace=trace)
        counters = [e for e in doc["traceEvents"]
                    if e.get("name") == "comm.reliability"]
        assert counters and all(e["ph"] == "C" for e in counters)
        assert sum(e["args"]["dropped"] for e in counters) > 0
