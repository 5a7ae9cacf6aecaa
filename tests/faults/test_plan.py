"""FaultPlan/rule validation and injector determinism (no SPMD runs)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CrashRule,
    FaultInjector,
    FaultPlan,
    KernelFaultRule,
    MessageFaultRule,
)


class TestValidation:
    def test_empty_plan_is_valid(self):
        FaultPlan()

    def test_crash_rule_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=(CrashRule(rank=-1, at_op=1),))
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=(CrashRule(rank=0, at_op=0),))

    def test_one_crash_per_rank(self):
        with pytest.raises(ConfigurationError, match="one crash rule per rank"):
            FaultPlan(crashes=(CrashRule(0, 1), CrashRule(0, 5)))

    def test_message_rule_kind_and_prob(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(messages=(MessageFaultRule(kind="explode", prob=0.5),))
        with pytest.raises(ConfigurationError):
            FaultPlan(messages=(MessageFaultRule(kind="drop", prob=1.5),))
        with pytest.raises(ConfigurationError):
            FaultPlan(messages=(MessageFaultRule(kind="drop", prob=0.1,
                                                 tags="sometimes"),))

    def test_kernel_rule_kind(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(kernels=(KernelFaultRule("gesvd", 0, kind="zero"),))
        with pytest.raises(ConfigurationError):
            FaultPlan(kernels=(KernelFaultRule("gesvd", -1),))

    def test_resilience_is_a_bool(self):
        """``run_spmd(resilience=)`` takes True or False, refused before
        any rank starts; the tolerance it turns on has fixed bounds."""
        from repro.errors import CommunicatorError
        from repro.mpi import run_spmd
        from repro.mpi.communicator import MAX_RETRIES
        from repro.mpi.context import POLL_INTERVAL

        assert (MAX_RETRIES, POLL_INTERVAL) == (16, 0.05)
        for bad in (None, 1, "yes"):
            with pytest.raises(CommunicatorError,
                               match="resilience= expects True or False"):
                run_spmd(lambda comm: None, 2, resilience=bad)

    def test_injector_rejects_non_plan(self):
        with pytest.raises(ConfigurationError):
            FaultInjector({"seed": 0})


class TestRuleMatching:
    def test_tag_classes(self):
        user = MessageFaultRule(kind="drop", prob=1.0, tags="user")
        coll = MessageFaultRule(kind="drop", prob=1.0, tags="collectives")
        assert user.matches(0, tag=7, nbytes=10)
        assert not user.matches(0, tag=-3, nbytes=10)
        assert coll.matches(0, tag=-3, nbytes=10)
        assert not coll.matches(0, tag=7, nbytes=10)

    def test_explicit_tags_and_senders(self):
        r = MessageFaultRule(kind="corrupt", prob=1.0, tags=(5, 9), senders=(1,))
        assert r.matches(1, tag=5, nbytes=0)
        assert not r.matches(0, tag=5, nbytes=0)
        assert not r.matches(1, tag=6, nbytes=0)

    def test_size_window(self):
        r = MessageFaultRule(kind="drop", prob=1.0, min_bytes=8, max_bytes=64)
        assert r.matches(0, 0, 8) and r.matches(0, 0, 64)
        assert not r.matches(0, 0, 7)
        assert not r.matches(0, 0, 65)


class TestInjectorDeterminism:
    def test_same_seed_same_outcomes(self):
        rule = MessageFaultRule(kind="drop", prob=0.5)
        outcomes = []
        for _ in range(2):
            inj = FaultInjector(FaultPlan(seed=11, messages=(rule,)))
            outcomes.append(tuple(
                inj.message_outcome(0, 1, tag=0, nbytes=8) is not None
                for _ in range(64)
            ))
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_rank_streams_are_independent(self):
        rule = MessageFaultRule(kind="drop", prob=0.5)
        inj = FaultInjector(FaultPlan(seed=11, messages=(rule,)))
        a = tuple(inj.message_outcome(0, 1, 0, 8) is not None for _ in range(64))
        b = tuple(inj.message_outcome(1, 0, 0, 8) is not None for _ in range(64))
        assert a != b

    def test_trace_json_round_trips(self):
        inj = FaultInjector(FaultPlan(seed=0, kernels=(
            KernelFaultRule("gesvd", 0, kind="nan"),
        )))
        U, _ = inj.kernel_fault("gesvd", np.eye(3), rank=0)
        assert np.isnan(U[0, 0])
        events = json.loads(inj.trace_json())
        assert events == [
            {"rank": 0, "op_index": 0, "kind": "kernel:gesvd",
             "detail": [0, "nan"]},
        ]

    def test_corrupted_copy_never_touches_original(self):
        inj = FaultInjector(FaultPlan(seed=3))
        payload = [np.zeros(16), "label"]
        copy = inj.corrupted_copy(0, payload)
        assert np.all(payload[0] == 0)
        assert copy[1] == "label"
        assert np.count_nonzero(copy[0].view(np.uint8)) == 1

    def test_corrupted_copy_without_arrays_is_none(self):
        inj = FaultInjector(FaultPlan(seed=3))
        assert inj.corrupted_copy(0, {"just": "metadata"}) is None
