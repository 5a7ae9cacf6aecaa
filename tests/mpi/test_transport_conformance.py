"""Transport conformance: every scenario must behave identically on
``backend="threads"``, ``backend="procs"``, and ``backend="sockets"``.

The contract under test is the one ``docs/mpi-runtime.md`` (Transports)
states: collectives, point-to-point (blocking and nonblocking), split,
clocks, comm tracing, span tracing, fault injection, and the
sanitizer's collective/deadlock diagnostics are backend-invariant —
same values bit for bit, same errors, same counters.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.errors import CollectiveMismatchError, MessageLeakError, RankFailedError
from repro.faults import CrashRule, FaultPlan, MessageFaultRule
from repro.mpi import CommTrace, available_backends, run_spmd, waitall
from repro.obs import Tracer

BACKENDS = list(available_backends())


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def test_available_backends_names():
    assert BACKENDS == ["threads", "procs", "sockets"]


# ----------------------------------------------------------------------
# Collective equivalence
# ----------------------------------------------------------------------
def _collective_prog(comm):
    rng = np.random.default_rng(100 + comm.rank)
    x = rng.standard_normal(8)
    out = {}
    out["allreduce"] = comm.allreduce(x.copy())
    out["bcast"] = comm.bcast(x.copy() if comm.rank == 1 else None, root=1)
    out["allgather"] = np.concatenate(comm.allgather(x.copy()))
    pieces = [np.full(2, float(comm.rank * comm.size + d)) for d in range(comm.size)]
    out["alltoall"] = np.concatenate(comm.alltoall(pieces))
    gathered = comm.gather(x.copy(), root=0)
    out["gather"] = np.concatenate(gathered) if comm.rank == 0 else None
    out["reduce_scatter"] = comm.reduce_scatter([x.copy() * (d + 1) for d in range(comm.size)])
    sub = comm.split(color=comm.rank % 2, key=-comm.rank)
    out["split"] = (sub.rank, sub.size, float(sub.allreduce(x.copy())[0]))
    comm.barrier()
    return out


def test_collective_equivalence_across_backends():
    runs = {b: run_spmd(_collective_prog, 4, backend=b).values for b in BACKENDS}
    ref = runs[BACKENDS[0]]
    for b in BACKENDS[1:]:
        for rank in range(4):
            for key, want in ref[rank].items():
                got = runs[b][rank][key]
                if isinstance(want, np.ndarray):
                    assert np.array_equal(want, got), (b, rank, key)
                else:
                    assert want == got, (b, rank, key)


def test_sthosvd_bitwise_equivalence_across_backends():
    X = low_rank_tensor((8, 12, 6), (2, 4, 3), rng=9, noise=1e-9)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid((2, 2, 1)))
        dt = DistributedTensor.from_full(comms, X.data)
        res = sthosvd(dt, tol=1e-6, method="qr")
        return res.ranks, [np.array(f) for f in res.factors]

    runs = {b: run_spmd(prog, 4, backend=b).values for b in BACKENDS}
    ref = runs[BACKENDS[0]]
    for b in BACKENDS[1:]:
        for rank in range(4):
            assert ref[rank][0] == runs[b][rank][0]
            for fa, fb in zip(ref[rank][1], runs[b][rank][1]):
                assert np.array_equal(fa, fb)


# ----------------------------------------------------------------------
# Nonblocking semantics (S1): staging-tracked requests, ordering
# ----------------------------------------------------------------------
def test_isend_waitall_ordering(backend):
    def prog(comm):
        if comm.rank == 0:
            reqs = [comm.isend(np.array([i]), 1, tag=i) for i in range(8)]
            waitall(reqs)
            assert all(r.done() for r in reqs)
            return None
        vals = waitall([comm.irecv(0, tag=i) for i in range(8)])
        return [int(v[0]) for v in vals]

    res = run_spmd(prog, 2, backend=backend)
    assert res[1] == list(range(8))


def test_isend_completion_means_staged(backend):
    """A completed send request implies the payload is receivable."""

    def prog(comm):
        if comm.rank == 0:
            req = comm.isend(np.arange(16), 1, tag=5)
            req.wait()
            comm.barrier()
            return None
        comm.barrier()  # after rank 0's wait() the message must exist
        got = comm.recv(0, tag=5)
        return int(got.sum())

    res = run_spmd(prog, 2, backend=backend)
    assert res[1] == int(np.arange(16).sum())


def test_request_test_backoff_does_not_busy_spin(backend):
    """A test() poll loop on an unready request sleeps between polls."""

    def prog(comm):
        if comm.rank == 0:
            comm.recv(1, tag=9)  # parked until rank 1's poll loop ends
            comm.send(np.array([0]), 1, tag=1)
            return None
        req = comm.irecv(0, tag=1)  # not satisfied during the loop
        polls = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            done, _ = req.test()
            assert not done
            polls += 1
        comm.send(np.array([1]), 0, tag=9)
        req.wait()  # now rank 0 sends; the request completes
        return polls

    res = run_spmd(prog, 2, backend=backend)
    # With 1 us -> 1 ms exponential backoff, 50 ms of polling is a few
    # hundred iterations at most; a busy spin would be millions.
    assert 0 < res[1] < 10_000


def _irecv_exchange(comm):
    """Each rank posts its receive, sends 800 B, then waits."""
    other = 1 - comm.rank
    req = comm.irecv(other, tag=4)
    comm.send(np.full(100, float(comm.rank)), other, tag=4)
    return float(req.wait()[0])


def test_irecv_completion_is_observed_like_recv(backend):
    """``irecv(...).wait()`` completes through the same path as ``recv``:
    the receive is tallied and lands in the flight recorder."""
    from repro.obs import FlightRecorder

    trace, rec = CommTrace(), FlightRecorder()
    res = run_spmd(_irecv_exchange, 2, comm_trace=trace, recorder=rec,
                   backend=backend)
    assert res.values == [1.0, 0.0]
    assert trace.total_messages() == 2
    assert trace.total_recv_messages() == trace.total_messages()
    assert trace.in_flight_messages() == 0 and trace.in_flight_bytes() == 0
    for rank in (0, 1):
        (recv,) = [e for e in rec.events(rank) if e[2] == "recv"]
        assert recv[4]["peer"] == 1 - rank  # the sender's world rank
        assert recv[4]["nbytes"] == 800 and recv[4]["tag"] == 4


def _write_into_moved_payload(comm, nonblocking):
    if comm.rank == 0:
        comm.send(np.ones(8), dest=1, tag=3, copy=False)
    else:
        got = (comm.irecv(0, tag=3).wait() if nonblocking
               else comm.recv(0, tag=3))
        got[0] = 5.0  # zero-copy payloads arrive read-only
    return comm.rank


def test_irecv_of_a_moved_payload_is_attributed_like_recv(backend):
    """A write into an array that arrived by ``irecv`` of a
    ``copy=False`` send is re-attributed to the move, as for ``recv``."""
    from repro.errors import UseAfterMoveError

    messages = []
    for nonblocking in (False, True):
        with pytest.raises(UseAfterMoveError) as exc_info:
            run_spmd(_write_into_moved_payload, 2, nonblocking,
                     backend=backend, sanitize=True, recv_timeout=30.0)
        messages.append(str(exc_info.value))
        assert "received from rank 0" in messages[-1]
        assert "moved by send(copy=False)" in messages[-1]
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Observability conformance: counters and shards
# ----------------------------------------------------------------------
def _traffic_prog(comm):
    trace = comm.context.comm_trace
    trace.set_context("stage-a")
    comm.send(np.ones(100), (comm.rank + 1) % comm.size, tag=1)
    comm.recv((comm.rank - 1) % comm.size, tag=1)
    trace.set_context(None)
    comm.barrier()
    return comm.rank


def test_comm_trace_counters_identical_across_backends():
    snaps = {}
    for b in BACKENDS:
        trace = CommTrace()
        run_spmd(_traffic_prog, 3, comm_trace=trace, backend=b)
        snaps[b] = trace.to_dict()
    ref = snaps[BACKENDS[0]]
    for b in BACKENDS[1:]:
        assert snaps[b] == ref
    # context labels set inside the rank program survive the fork
    assert ref["context"] == "all"
    for b in BACKENDS:
        assert any(True for _ in snaps[b]["ranks"])


def test_comm_trace_context_labels_cross_backends():
    for b in BACKENDS:
        trace = CommTrace()
        run_spmd(_traffic_prog, 3, comm_trace=trace, backend=b)
        assert trace.sent_messages(0, "stage-a") == 1, b
        assert trace.sent_bytes(0, "stage-a") == 800, b


def test_tracer_and_clock_shards_merge(backend):
    def prog(comm):
        comm.allreduce(np.ones(4))
        return comm.rank

    tracer = Tracer()
    res = run_spmd(prog, 3, tracer=tracer, backend=backend)
    assert res.values == [0, 1, 2]
    assert tracer.ranks() == [0, 1, 2]
    assert "comm.allreduce" in tracer.span_names()


# ----------------------------------------------------------------------
# Sanitizer diagnostics
# ----------------------------------------------------------------------
def test_sanitizer_collective_mismatch_diagnostic(backend):
    def prog(comm):
        if comm.rank == 0:
            comm.allreduce(np.ones(4))
        else:
            comm.barrier()
        return 1

    with pytest.raises(CollectiveMismatchError, match="allreduce"):
        run_spmd(prog, 2, sanitize=True, recv_timeout=10, backend=backend)


def test_sanitizer_message_leak_finding(backend):
    def prog(comm):
        if comm.rank == 0:
            comm.send(np.ones(3), 1, tag=4)  # never received
        comm.barrier()
        return 1

    with pytest.raises(MessageLeakError) as ei:
        run_spmd(prog, 2, sanitize=True, backend=backend)
    assert any(f.kind == "message-leak" for f in ei.value.diagnostics)


# ----------------------------------------------------------------------
# Chaos smoke (S2 rides here too): crashes surface as RankFailedError
# ----------------------------------------------------------------------
def test_crashed_partner_fast_fails_recv(backend):
    def prog(comm):
        if comm.rank == 1:
            comm.recv(0, tag=5)
        elif comm.rank == 0:
            comm.send(np.ones(2), 1, tag=5)  # dies inside this op
        return comm.rank

    plan = FaultPlan(seed=7, crashes=(CrashRule(rank=0, at_op=1),))
    with pytest.raises(RankFailedError, match="already failed"):
        run_spmd(prog, 2, faults=plan, recv_timeout=15, backend=backend)


def test_chaos_smoke_shrink_recovery(backend):
    def prog(comm):
        try:
            comm.barrier()
            comm.barrier()
        except RankFailedError:
            comm.revoke()
            comm = comm.shrink()
        return float(comm.allreduce(np.array([1.0]))[0])

    plan = FaultPlan(
        seed=3,
        crashes=(CrashRule(rank=1, at_op=2),),
        messages=(MessageFaultRule(kind="drop", prob=0.02),),
    )
    res = run_spmd(prog, 3, faults=plan, resilience=True, recv_timeout=20,
                   backend=backend)
    assert res.failed_ranks == [1]
    survivors = [v for v in res.values if v is not None]
    assert survivors == [2.0, 2.0]
    assert (1, 2, "crash", ()) in res.faults.trace_key()


def test_fault_trace_deterministic_across_backends():
    def prog(comm):
        for _ in range(4):
            comm.send(np.ones(64), (comm.rank + 1) % comm.size, tag=2)
            comm.recv((comm.rank - 1) % comm.size, tag=2)
        return comm.rank

    plan = FaultPlan(seed=11, messages=(
        MessageFaultRule(kind="drop", prob=0.2),
    ))
    keys = []
    for b in BACKENDS:
        res = run_spmd(prog, 3, faults=plan, resilience=True,
                       recv_timeout=20, backend=b)
        keys.append(res.faults.trace_key())
    assert keys[0] and all(k == keys[0] for k in keys[1:])


# ----------------------------------------------------------------------
# Return values crossing the process boundary
# ----------------------------------------------------------------------
def test_full_result_object_crosses_process_boundary():
    """A rank program may return the whole SthosvdResult: on
    procs the embedded DistributedTensor detaches from its world, so
    layout queries and error estimates still work in the caller, while
    collectives on the detached core raise a clear diagnostic."""
    from repro.errors import DistributionError

    X = low_rank_tensor((8, 12, 6), (2, 4, 3), rng=9, noise=1e-9)

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid((2, 2, 1)))
        dt = DistributedTensor.from_full(comms, X.data)
        return sthosvd(dt, tol=1e-6, method="qr")

    results = {b: run_spmd(prog, 4, backend=b)[0] for b in BACKENDS}
    ref = results[BACKENDS[0]]
    for b in BACKENDS[1:]:
        assert results[b].ranks == ref.ranks
        assert results[b].estimated_rel_error() == ref.estimated_rel_error()
    detached = results["procs"].core
    assert detached.global_shape == ref.core.global_shape
    assert detached.local.shape == ref.core.local.shape
    with pytest.raises(DistributionError, match="detached"):
        detached.gather()


def test_unpicklable_return_value_surfaces_diagnostic():
    """A return value that cannot cross the process boundary must raise
    a CommunicatorError naming the problem, not a silent worker death."""
    from repro.errors import CommunicatorError

    def prog(comm):
        import threading

        return threading.Lock()  # cannot pickle

    with pytest.raises(CommunicatorError,
                       match="could not cross the process boundary"):
        run_spmd(prog, 2, backend="procs")


# ----------------------------------------------------------------------
# Process-backend-specific lifecycle
# ----------------------------------------------------------------------
def test_procs_hard_worker_death_surfaces_rank_failed():
    """A worker that dies without a lifecycle message (simulating a
    segfault/OOM kill) must surface RankFailedError, not hang."""
    import os

    def prog(comm):
        if comm.rank == 1:
            os._exit(17)
        comm.recv(1, tag=9)
        return 0

    with pytest.raises(RankFailedError, match="rank 1"):
        run_spmd(prog, 2, recv_timeout=30, backend="procs")


# ----------------------------------------------------------------------
# Drain contract: what a rank sent before it left is always delivered
# ----------------------------------------------------------------------
_DRAIN_K = 6


def _drain_prog(comm):
    """Rank 0 sends k messages and leaves while rank 1 sleeps; rank 1
    then receives: all k must be there, and only the (k+1)-th receive
    may report the partner gone."""
    if comm.rank == 0:
        for i in range(_DRAIN_K):
            comm.send(np.full(2000 * (i + 1), float(i)), 1, tag=i % 2)
        return "sent"
    time.sleep(0.3)  # rank 0 is long gone when the first receive starts
    got = []
    for i in range(_DRAIN_K):
        msg = comm.recv(0, tag=i % 2)
        got.append((msg.size, float(msg[0]), float(msg[-1])))
    with pytest.raises(RankFailedError, match="rank 0 already"):
        comm.recv(0, tag=0)
    return got


_DRAINED = [(2000 * (i + 1), float(i), float(i)) for i in range(_DRAIN_K)]


def test_messages_sent_before_a_clean_finalize_are_delivered(backend):
    res = run_spmd(_drain_prog, 2, recv_timeout=20, backend=backend)
    assert res.values == ["sent", _DRAINED]


def test_messages_sent_before_an_injected_kill_are_delivered(backend):
    """The kill fires inside rank 0's (k+1)-th operation: its k sends
    are on the wire, its lifecycle report says so, and the receiver
    gets all k before the failure."""
    def prog(comm):
        if comm.rank == 0:
            _drain_prog(comm)
            comm.barrier()  # op k+1: dies here
        return _drain_prog(comm)

    plan = FaultPlan(seed=1, crashes=(CrashRule(rank=0, at_op=_DRAIN_K + 1),))
    res = run_spmd(prog, 2, faults=plan, recv_timeout=20, backend=backend)
    assert res.failed_ranks == [0]
    assert res.values[1] == _DRAINED


@pytest.mark.parametrize("backend", ["procs", "sockets"])
def test_sigkilled_partner_fails_a_blocked_receive(backend, tmp_path):
    """A worker killed with SIGKILL says nothing on its way out: the
    master declares it lost (at once on procs, where an EOF is a death;
    after the liveness deadline on sockets) and the blocked receive
    raises with the usual message."""
    import os
    import signal

    from repro.mpi.transport import SocketTransport

    seen = tmp_path / "rank1.txt"

    def prog(comm):
        if comm.rank == 0:
            comm.send(np.ones(3), 1, tag=1)
            comm.recv(1, tag=2)  # rank 1 has the message before the kill
            os.kill(os.getpid(), signal.SIGKILL)
        first = comm.recv(0, tag=1)
        comm.send(first, 0, tag=2)
        try:
            comm.recv(0, tag=3)  # never sent
        except RankFailedError as exc:
            seen.write_text(str(exc))
            raise

    transport = (SocketTransport(liveness_timeout=1.5)
                 if backend == "sockets" else backend)
    t0 = time.monotonic()
    with pytest.raises(RankFailedError, match="rank 0"):
        run_spmd(prog, 2, recv_timeout=60, backend=transport)
    assert time.monotonic() - t0 < 30
    assert seen.read_text() == ("rank 1 blocked in recv(source=0, tag=3) "
                                "but rank 0 already failed")


@pytest.mark.parametrize("backend", ["procs", "sockets"])
def test_teardown_wakes_its_threads_instead_of_waiting_out_a_tick(
        backend, monkeypatch):
    """Every sockets world used to pay 200 ms on the way out: the accept
    thread and the data readers slept out their poll interval after the
    last rank was done.  With the interval stretched to a minute, a
    trivial world must still launch, finish and leave no transport
    thread behind — anything that waits for a tick instead of being
    woken shows up as a hang, not as a few hundred milliseconds."""
    import threading

    from repro.mpi.transport import sockets

    monkeypatch.setattr(sockets, "_DATA_TICK", 60.0)
    before = set(threading.enumerate())
    t0 = time.monotonic()
    res = run_spmd(lambda comm: comm.allreduce(np.ones(2))[0], 2,
                   backend=backend, recv_timeout=20)
    assert res.values == [2.0, 2.0]
    assert time.monotonic() - t0 < 20
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    assert left == []


def test_backend_env_var_fallback(monkeypatch):
    from repro.mpi.transport import make_transport

    monkeypatch.setenv("REPRO_SPMD_BACKEND", "procs")
    assert make_transport(None).name == "procs"
    monkeypatch.delenv("REPRO_SPMD_BACKEND")
    assert make_transport(None).name == "threads"


def test_unknown_backend_rejected():
    from repro.errors import CommunicatorError

    with pytest.raises(CommunicatorError, match="unknown SPMD backend"):
        run_spmd(lambda comm: 0, 1, backend="smoke-signals")


# ----------------------------------------------------------------------
# Flight recorder and postmortems (backend-invariant)
# ----------------------------------------------------------------------
def _crash_prog(comm):
    """Rank 0 dies inside its first op; rank 1's message is left queued."""
    if comm.rank == 1:
        comm.send(np.ones(4), 0, tag=5)
    return comm.recv((comm.rank + 1) % comm.size, tag=9)


_CRASH_PLAN = dict(seed=7, crashes=(CrashRule(rank=0, at_op=1),))


def _deadlock_prog(comm):
    return comm.recv((comm.rank + 1) % comm.size, tag=3)


def _event_signature(recorder, rank):
    """The deterministic projection of a rank's event stream."""
    sig = []
    for _seq, _ts, kind, name, detail in recorder.events(rank):
        stable = {k: v for k, v in detail.items()
                  if k not in ("duration_s",)}
        sig.append((kind, name, tuple(sorted(stable.items()))))
    return sig


def test_crash_postmortem_bundle(backend, tmp_path):
    from repro.obs import FlightRecorder, load_postmortem, render_postmortem

    rec = FlightRecorder(postmortem_dir=str(tmp_path))
    with pytest.raises(RankFailedError):
        run_spmd(_crash_prog, 2, faults=FaultPlan(**_CRASH_PLAN),
                 recorder=rec, recv_timeout=15, backend=backend)

    bundle = rec.last_postmortem
    assert bundle is not None
    assert bundle["schema"] == "repro-postmortem/1"
    assert bundle["backend"] == backend
    assert bundle["error"]["type"] == "RankFailedError"
    assert bundle["aborted"]
    # every rank's recorder state made it into the bundle
    for rank in ("0", "1"):
        entry = bundle["ranks"][rank]
        assert entry["events_recorded"] > 0
        assert entry["last_events"], rank
        assert entry["span_stack"] == ["comm.recv"], rank
        assert entry["heartbeat_age_s"] >= 0.0, rank
    # rank 1's send to the dead rank 0 is still in flight
    assert any(
        m["dest_world_rank"] == 0 and m["source_rank"] == 1 and m["tag"] == 5
        for m in bundle["in_flight"]
    )
    assert bundle["fault_trace"] == [[0, 1, "crash", []]]
    # the bundle also landed on disk and renders
    assert rec.last_postmortem_path is not None
    loaded = load_postmortem(rec.last_postmortem_path)
    assert loaded["ranks"] == bundle["ranks"]
    text = render_postmortem(loaded)
    assert "ROOT CAUSE" in text and "RankFailedError" in text


def test_deadlock_postmortem_bundle(backend, tmp_path):
    from repro.errors import DeadlockError
    from repro.obs import FlightRecorder

    rec = FlightRecorder(postmortem_dir=str(tmp_path))
    with pytest.raises(DeadlockError):
        run_spmd(_deadlock_prog, 2, recorder=rec, recv_timeout=30,
                 sanitize=True, backend=backend)

    bundle = rec.last_postmortem
    assert bundle is not None
    deadlock = bundle["deadlock"]
    assert deadlock is not None and deadlock["reason"] == "wait-for cycle"
    edges = {(w["rank"], w["awaiting_rank"], w["tag"])
             for w in deadlock["waits"]}
    assert edges == {(0, 1, 3), (1, 0, 3)}
    for rank in ("0", "1"):
        assert bundle["ranks"][rank]["span_stack"] == ["comm.recv"], rank


def test_postmortem_events_deterministic_under_crash(backend):
    from repro.obs import FlightRecorder

    signatures = []
    for _ in range(2):
        rec = FlightRecorder()
        with pytest.raises(RankFailedError):
            run_spmd(_crash_prog, 2, faults=FaultPlan(**_CRASH_PLAN),
                     recorder=rec, recv_timeout=15, backend=backend)
        signatures.append({r: _event_signature(rec, r) for r in rec.ranks()})
    assert signatures[0] == signatures[1]
    assert signatures[0][0] and signatures[0][1]


def _slow_ring_prog(comm):
    for _ in range(4):
        comm.send(np.ones(128), (comm.rank + 1) % comm.size, tag=2)
        comm.recv((comm.rank - 1) % comm.size, tag=2)
        time.sleep(0.08)
    return comm.rank


def test_recorder_streams_midrun(backend, monkeypatch):
    """The caller's recorder fills *while ranks run*, on every backend:
    threads share it; a process worker streams it with its heartbeat.
    A count strictly between zero and the final one can only come from
    a live rank, never from a closing report."""
    import threading

    from repro.obs import FlightRecorder

    monkeypatch.setenv("REPRO_SOCKETS_HEARTBEAT", "0.05")
    rec = FlightRecorder()
    seen = {0: set(), 1: set()}
    stop = threading.Event()

    def sampler():
        while not stop.is_set():
            for rank, counts in seen.items():
                counts.add(rec.recorded(rank))
            time.sleep(0.01)

    thread = threading.Thread(target=sampler)
    thread.start()
    try:
        res = run_spmd(_slow_ring_prog, 2, recorder=rec, backend=backend)
    finally:
        stop.set()
        thread.join()
    assert sorted(res.values) == [0, 1]
    assert rec.recorded(0) >= 16  # 4 sends + 4 recvs
    assert any(0 < n < rec.recorded(rank)
               for rank, counts in seen.items() for n in counts), (
        f"no mid-run recorder state on {backend}: {seen}")
