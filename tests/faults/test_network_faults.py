"""Deterministic network fault injection on the sockets backend.

The contract: network faults are *count-based* (connect attempts, data
frames), never wall-clock-based, so the same plan against the same
program yields the identical :class:`~repro.faults.FaultEvent` trace
run after run — the property every other fault kind in
:mod:`repro.faults` already guarantees, extended to the wire.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError, RankFailedError
from repro.faults import FaultPlan, NetworkFaultRule
from repro.faults.network import NetworkFaultState
from repro.mpi import run_spmd
from repro.mpi.transport import SocketTransport
from repro.mpi.transport.net import RetryPolicy


# ----------------------------------------------------------------------
# Rule validation
# ----------------------------------------------------------------------
def test_rule_validation_rejects_bad_kinds_and_bounds():
    with pytest.raises(Exception):
        FaultPlan(seed=0, network=(NetworkFaultRule("smoke-signals"),))
    with pytest.raises(Exception):
        FaultPlan(seed=0, network=(
            NetworkFaultRule("connect_refused", attempts=0),))
    with pytest.raises(Exception):
        FaultPlan(seed=0, network=(
            NetworkFaultRule("reset", after_frames=0),))
    with pytest.raises(Exception):
        FaultPlan(seed=0, network=(NetworkFaultRule("slow"),))  # no shaping


def test_rule_rank_scoping():
    rule = NetworkFaultRule("reset", ranks=(1, 3))
    assert rule.applies_to(1) and rule.applies_to(3)
    assert not rule.applies_to(0)
    assert NetworkFaultRule("reset").applies_to(7)  # None = all ranks


# ----------------------------------------------------------------------
# The state engine alone (no transport): count-based transitions
# ----------------------------------------------------------------------
def test_state_engine_refusals_then_accept():
    rules = (NetworkFaultRule("connect_refused", ranks=(0,), attempts=2),)
    st = NetworkFaultState(rules, rank=0)
    with pytest.raises(ConnectionRefusedError):
        st.on_connect_attempt("ctl")
    with pytest.raises(ConnectionRefusedError):
        st.on_connect_attempt("ctl")
    st.on_connect_attempt("ctl")  # budget exhausted: accepted
    kinds = [e[2] for e in st.drain_events()]
    assert kinds == ["net:connect_refused", "net:connect_refused"]


def test_state_engine_reset_and_partition_fire_on_frame_counts():
    rules = (NetworkFaultRule("reset", ranks=(0,), after_frames=2),
             NetworkFaultRule("partition", ranks=(0,), after_frames=4))
    st = NetworkFaultState(rules, rank=0)
    actions = [st.on_frame(10) for _ in range(5)]
    assert actions == ["send", "reset", "send", "dark", "dark"]
    assert st.dark
    kinds = [e[2] for e in st.drain_events()]
    assert kinds == ["net:reset", "net:partition"]


def test_state_engine_uncountable_frames_do_not_advance_rules():
    """Heartbeats/pings are timing-dependent traffic; excluding them
    from the frame count is what keeps the trace deterministic."""
    rules = (NetworkFaultRule("reset", ranks=(0,), after_frames=1),)
    st = NetworkFaultState(rules, rank=0)
    for _ in range(10):
        assert st.on_frame(8, countable=False) == "send"
    assert st.on_frame(8) == "reset"


# ----------------------------------------------------------------------
# End-to-end determinism over the sockets transport
# ----------------------------------------------------------------------
def _ring_prog(comm):
    for i in range(5):
        comm.send(np.ones(16), (comm.rank + 1) % comm.size, tag=i)
        comm.recv((comm.rank - 1) % comm.size, tag=i)
    return comm.rank


@pytest.mark.parametrize("rules", [
    (NetworkFaultRule("connect_refused", ranks=(1,), attempts=2),),
    (NetworkFaultRule("reset", ranks=(1,), after_frames=2),),
    (NetworkFaultRule("slow", ranks=(0,), latency_seconds=0.005),),
    (NetworkFaultRule("connect_refused", ranks=(2,), attempts=1),
     NetworkFaultRule("reset", ranks=(0,), after_frames=3),),
], ids=["refused", "reset", "slow", "mixed"])
def test_transient_fault_trace_deterministic(rules):
    plan = FaultPlan(seed=21, network=tuple(rules))
    keys = []
    for _ in range(3):
        res = run_spmd(_ring_prog, 3, faults=plan, backend="sockets")
        assert sorted(res.values) == [0, 1, 2]  # faults were survived
        keys.append(res.faults.trace_key())
    assert keys[0]  # something actually fired
    assert keys[0] == keys[1] == keys[2]


def test_partition_trace_and_outcome_deterministic():
    def prog(comm):
        try:
            return _ring_prog(comm)
        except RankFailedError:
            comm.revoke()
            comm = comm.shrink()
            return 100 + int(comm.allreduce(np.array([1.0]))[0])

    plan = FaultPlan(seed=4, network=(
        NetworkFaultRule("partition", ranks=(2,), after_frames=2),))
    outcomes = []
    for _ in range(2):
        res = run_spmd(prog, 3, faults=plan,
                       backend=SocketTransport(liveness_timeout=1.5))
        assert res.failed_ranks == [2]
        survivors = sorted(v for v in res.values if v is not None)
        outcomes.append((tuple(survivors), res.faults.trace_key()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (102, 102)
    assert (2, 2, "net:partition", (2,)) in outcomes[0][1]


def test_reset_does_not_corrupt_or_duplicate_messages():
    """A mid-stream reset is retransmitted exactly once: receivers see
    every message once, bitwise intact."""
    def prog(comm):
        if comm.rank == 0:
            for i in range(8):
                comm.send(np.arange(32.0) * (i + 1), 1, tag=i)
            return None
        return [comm.recv(0, tag=i).sum() for i in range(8)]

    plan = FaultPlan(seed=2, network=(
        NetworkFaultRule("reset", ranks=(0,), after_frames=3),))
    res = run_spmd(prog, 2, faults=plan, backend="sockets")
    want = [float(np.arange(32.0).sum() * (i + 1)) for i in range(8)]
    assert res.values[1] == want
    assert (0, 3, "net:reset", (256,)) in res.faults.trace_key()


def test_dead_send_path_is_attributed_not_a_clean_finalize():
    """A rank whose link to a peer dies permanently (reconnects refused)
    must not finalize clean: the master fails the rank with the send
    path as the named cause, so the blocked receiver's diagnosis is the
    lost delivery — not a misleading 'rank already finalized with an
    empty queue'."""
    def prog(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1), 1, tag=6)  # raises the peer link
            # Sabotage the worker's own data path: kill the socket and
            # point reconnects at a port nothing listens on, so the
            # delivery below can never ship.
            ctx = comm.context
            ctx._wire._out[1].fs.close()
            ctx._table["book"][1] = ("127.0.0.1", 1)
            comm.send(np.ones(4), 1, tag=7)
            return "finished"
        comm.recv(0, tag=6)
        return comm.recv(0, tag=7)

    transport = SocketTransport(connect_policy=RetryPolicy(
        max_retries=1, base_delay=0.01, backoff_cap=0.02, jitter=0.0))
    import time

    t0 = time.monotonic()
    with pytest.raises(RankFailedError, match="send path failed"):
        run_spmd(prog, 2, recv_timeout=60, backend=transport)
    # nobody may sit out the 30 s drain bound first
    assert time.monotonic() - t0 < 15.0


def test_connect_retries_land_in_comm_trace_and_health():
    from repro.mpi import CommTrace

    plan = FaultPlan(seed=6, network=(
        NetworkFaultRule("connect_refused", ranks=(1,), attempts=2),))
    trace = CommTrace()
    transport = SocketTransport()
    res = run_spmd(_ring_prog, 3, faults=plan, comm_trace=trace,
                   backend=transport)
    assert sorted(res.values) == [0, 1, 2]
    assert trace.connect_retries(1) == 2
    assert trace.connect_retries(0) == 0
    health = transport.net_health
    assert health[1]["retries"] == 2
    assert health[1]["connect_attempts"] >= 4  # 2 refusals + ctl + data
    assert health[0]["connect_attempts"] >= 2  # ctl + data, no refusals


# ----------------------------------------------------------------------
# Rendezvous hardening: nothing is unpickled before authentication
# ----------------------------------------------------------------------
def test_rendezvous_rejects_pickle_and_bad_token_preauth(tmp_path):
    """The accept loop must never deserialize a pickle from an
    unauthenticated connection: a crafted pickled hello (the attack the
    pre-JSON protocol allowed) is dropped without executing anything,
    a JSON hello with a wrong token is dropped, and only the correct
    token earns the ``ok`` acknowledgement."""
    import json
    import os
    import pickle
    import socket as socketlib
    import struct
    import threading
    from types import SimpleNamespace

    from repro.mpi.transport.sockets import SocketTransport, _SockLink

    transport = SocketTransport()
    transport._shutdown = threading.Event()
    transport.net_health = {0: {"connect_attempts": 0, "retries": 0,
                                "reconnects": 0, "heartbeat_age": None,
                                "disconnect": None, "faults": []}}
    listener = socketlib.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    links = [_SockLink(0)]
    context = SimpleNamespace(comm_trace=None, recorder=None)
    thread = threading.Thread(
        target=transport._accept_loop,
        args=(listener, links, "right-token", context), daemon=True,
    )
    thread.start()

    def frame(blob: bytes) -> bytes:
        return struct.pack("<I", len(blob)) + blob

    marker = str(tmp_path / "pwned")

    class Evil:
        def __reduce__(self):
            return (os.mkdir, (marker,))

    try:
        # A pickled hello that would mkdir on load — even with the
        # correct token in the old tuple slot — must be dropped with
        # the connection closed and the payload never deserialized.
        evil = pickle.dumps(
            (("hello", "ctl", 0, "right-token", Evil()), []), protocol=4
        )
        with socketlib.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(frame(evil))
            s.settimeout(5)
            assert s.recv(1) == b""  # closed, no reply
        assert not os.path.exists(marker), "pre-auth pickle was executed"

        # A well-formed JSON hello with the wrong token: closed too.
        bad = json.dumps({"kind": "hello", "purpose": "ctl", "rank": 0,
                          "token": "wrong-token"}).encode()
        with socketlib.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(frame(bad))
            s.settimeout(5)
            assert s.recv(1) == b""

        # The correct token is acknowledged with a JSON ok.
        good = json.dumps({"kind": "hello", "purpose": "ctl", "rank": 0,
                           "token": "right-token", "generation": 1,
                           "attempts": 1, "retries": 0}).encode()
        with socketlib.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(frame(good))
            s.settimeout(5)
            raw = s.recv(65536)
            (length,) = struct.unpack("<I", raw[:4])
            reply = json.loads(raw[4:4 + length])
            assert reply["kind"] == "ok" and reply["world"] == 1
    finally:
        transport._stop_accepting(listener)
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert links[0].ctl is not None  # the authenticated hello attached


# ----------------------------------------------------------------------
# RetryPolicy unit behavior
# ----------------------------------------------------------------------
def test_retry_policy_backoff_is_bounded_exponential():
    p = RetryPolicy(max_retries=10, base_delay=0.1, backoff_cap=0.4,
                    jitter=0.0)
    delays = [p.delay(a) for a in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]


def test_retry_policy_huge_attempt_counts_do_not_overflow():
    # A Request poll loop feeds an unbounded attempt counter into
    # delay(); 2.0 ** 1024 must not raise OverflowError and the cap
    # must still hold (regression: long-pending polls crashed at ~1s).
    p = RetryPolicy(base_delay=1e-6, backoff_cap=1e-3, jitter=0.0)
    for attempt in (64, 1024, 10**6):
        assert p.delay(attempt) == 1e-3


def test_retry_policy_jitter_stays_within_fraction():
    rng = np.random.default_rng(0)
    p = RetryPolicy(max_retries=10, base_delay=0.1, backoff_cap=1.0,
                    jitter=0.5)
    for attempt in range(6):
        base = min(0.1 * 2 ** attempt, 1.0)
        for _ in range(20):
            d = p.delay(attempt, rng=rng)
            assert base * 0.5 <= d <= base * 1.5


def test_retry_policy_run_retries_then_succeeds():
    calls = {"n": 0}
    sleeps = []

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionRefusedError("nope")
        return "ok"

    p = RetryPolicy(max_retries=5, base_delay=0.01, backoff_cap=0.02,
                    jitter=0.0)
    out = p.run(flaky, retry_on=(ConnectionRefusedError,),
                sleep=sleeps.append)
    assert out == "ok" and calls["n"] == 3
    assert sleeps == [0.01, 0.02]


def test_retry_policy_run_exhausts_budget():
    def always():
        raise ConnectionRefusedError("still down")

    p = RetryPolicy(max_retries=3, base_delay=0.0, backoff_cap=0.0,
                    jitter=0.0)
    with pytest.raises(ConnectionRefusedError):
        p.run(always, retry_on=(ConnectionRefusedError,),
              sleep=lambda _t: None)
