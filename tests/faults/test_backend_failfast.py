"""Dead-partner fast-fail must work on every transport backend (S2).

A blocked receive whose partner died — by injected crash or, on the
process backend, by the worker process dying outright — must wake
promptly with :class:`~repro.errors.RankFailedError` carrying the
failed-partner diagnosis, never sit out the full ``recv_timeout``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.faults import CrashRule, FaultPlan
from repro.mpi import available_backends, run_spmd

TIMEOUT = 60.0  # generous recv_timeout: fast-fail must beat it easily


@pytest.fixture(params=list(available_backends()))
def backend(request):
    return request.param


def test_recv_from_crashed_rank_fast_fails(backend):
    """The receiver wakes well before recv_timeout when the sender dies."""

    def prog(comm):
        if comm.rank == 0:
            comm.send(np.ones(4), 1, tag=3)  # injected crash fires here
            return None
        comm.recv(0, tag=3)
        return None

    plan = FaultPlan(seed=5, crashes=(CrashRule(rank=0, at_op=1),))
    t0 = time.monotonic()
    with pytest.raises(RankFailedError, match="rank 0 already failed"):
        run_spmd(prog, 2, faults=plan, recv_timeout=TIMEOUT, backend=backend)
    assert time.monotonic() - t0 < TIMEOUT / 2


def test_collective_with_crashed_rank_fast_fails(backend):
    """Survivors inside a collective observe the death, not a timeout."""

    def prog(comm):
        comm.barrier()
        comm.barrier()  # rank 1 dies before/inside this one
        return comm.rank

    plan = FaultPlan(seed=6, crashes=(CrashRule(rank=1, at_op=2),))
    t0 = time.monotonic()
    with pytest.raises(RankFailedError):
        run_spmd(prog, 3, faults=plan, recv_timeout=TIMEOUT, backend=backend)
    assert time.monotonic() - t0 < TIMEOUT / 2


def test_survivors_can_shrink_past_the_death(backend):
    """The ULFM-style recovery loop works identically on both backends."""

    def prog(comm):
        try:
            comm.barrier()
            comm.barrier()
        except RankFailedError:
            comm.revoke()
            comm = comm.shrink()
        return float(comm.allreduce(np.array([1.0]))[0]), comm.size

    plan = FaultPlan(seed=6, crashes=(CrashRule(rank=2, at_op=2),))
    res = run_spmd(prog, 4, faults=plan, recv_timeout=TIMEOUT,
                   backend=backend)
    assert res.failed_ranks == [2]
    survivors = [v for v in res.values if v is not None]
    assert survivors == [(3.0, 3)] * 3


def test_sockets_hard_death_fast_fails_within_liveness_deadline():
    """A socket worker killed without warning (os._exit, simulating
    SIGKILL or a powered-off host) stops pinging; the master declares
    it dead once the liveness deadline passes — well inside
    recv_timeout — and blocked partners wake with RankFailedError."""
    import os

    from repro.mpi.transport import SocketTransport

    liveness = 2.0

    def prog(comm):
        if comm.rank == 0:
            os._exit(9)
        comm.recv(0, tag=1)
        return None

    t0 = time.monotonic()
    with pytest.raises(RankFailedError, match="rank 0"):
        run_spmd(prog, 2, recv_timeout=TIMEOUT,
                 backend=SocketTransport(liveness_timeout=liveness))
    elapsed = time.monotonic() - t0
    assert elapsed < TIMEOUT / 2
    # detection is liveness-bounded, not instant: the silence had to
    # outlast the deadline before the master would call it a death
    assert elapsed >= liveness * 0.5


def test_sockets_partition_postmortem_names_broken_link():
    """An injected partition kills a rank's links mid-run: survivors
    shrink past it and complete — no hang, no world abort — and the
    partition lands in the deterministic fault trace."""
    from repro.faults import NetworkFaultRule
    from repro.mpi.transport import SocketTransport
    from repro.obs import FlightRecorder

    def prog(comm):
        try:
            for i in range(6):
                comm.send(np.ones(8), (comm.rank + 1) % comm.size, tag=i)
                comm.recv((comm.rank - 1) % comm.size, tag=i)
        except RankFailedError:
            comm.revoke()
            comm = comm.shrink()
        return float(comm.allreduce(np.array([1.0]))[0]), comm.size

    plan = FaultPlan(seed=13, network=(
        NetworkFaultRule("partition", ranks=(1,), after_frames=3),
    ))
    rec = FlightRecorder(heartbeat_interval=0.05)
    res = run_spmd(prog, 3, faults=plan, recv_timeout=TIMEOUT, recorder=rec,
                   backend=SocketTransport(liveness_timeout=2.0))
    # graceful degradation: no world abort, survivors complete shrunk
    assert res.failed_ranks == [1]
    survivors = [v for v in res.values if v is not None]
    assert survivors == [(2.0, 2)] * 2
    assert (1, 3, "net:partition", (1,)) in res.faults.trace_key()


def test_sockets_partition_root_cause_in_written_postmortem(tmp_path):
    """When the program does NOT tolerate the partition, the launcher
    re-raises the survivor's RankFailedError and writes a postmortem
    whose network section carries the broken link's record: the
    injected partition, the liveness-deadline disconnect, and the
    heartbeat age at death."""
    from repro.faults import NetworkFaultRule
    from repro.mpi.transport import SocketTransport
    from repro.obs import FlightRecorder, render_postmortem

    def prog(comm):
        for i in range(6):
            comm.send(np.ones(8), (comm.rank + 1) % comm.size, tag=i)
            comm.recv((comm.rank - 1) % comm.size, tag=i)
        return comm.rank

    plan = FaultPlan(seed=13, network=(
        NetworkFaultRule("partition", ranks=(1,), after_frames=3),
    ))
    rec = FlightRecorder(heartbeat_interval=0.05,
                         postmortem_dir=str(tmp_path))
    with pytest.raises(RankFailedError):
        run_spmd(prog, 3, faults=plan, recv_timeout=TIMEOUT, recorder=rec,
                 backend=SocketTransport(liveness_timeout=2.0))

    bundle = rec.last_postmortem
    assert bundle is not None
    net = bundle["network"]
    assert net is not None
    broken = net["1"]
    assert "net:partition" in broken["faults"]
    assert broken["disconnect"] is not None  # liveness verdict recorded
    assert broken["heartbeat_age"] is not None
    # healthy links carry history but no disconnect verdict
    assert net["0"]["disconnect"] is None
    assert net["0"]["connect_attempts"] >= 2  # ctl + data hellos
    assert [1, 3, "net:partition", [1]] in bundle["fault_trace"]
    text = render_postmortem(bundle)
    assert "ROOT CAUSE" in text
    assert "network links" in text and "net:partition" in text


def test_procs_hard_death_fast_fails_without_lifecycle_message():
    """A worker killed without warning (os._exit, simulating segfault or
    OOM kill) is detected through its pipe EOF: partners blocked on it
    wake with RankFailedError long before recv_timeout."""
    import os

    def prog(comm):
        if comm.rank == 0:
            os._exit(11)
        comm.recv(0, tag=1)
        return None

    t0 = time.monotonic()
    with pytest.raises(RankFailedError, match="rank 0"):
        run_spmd(prog, 2, recv_timeout=TIMEOUT, backend="procs")
    assert time.monotonic() - t0 < TIMEOUT / 2


# ----------------------------------------------------------------------
# World close: a worker that will not exit cannot hold the world
# ----------------------------------------------------------------------
def _leaves_a_thread_running(comm, then_raise=False):
    if comm.rank == 1:
        # Non-daemon: multiprocessing's shutdown of the worker process
        # waits for it (threading._shutdown) long after the rank is done.
        import threading

        threading.Thread(target=time.sleep, args=(TIMEOUT,)).start()
        if then_raise:
            raise ValueError("rank 1 gives up")
    return float(comm.allreduce(np.array([1.0]))[0])


@pytest.mark.parametrize("backend", ["procs", "sockets"])
def test_world_close_reaps_a_worker_that_will_not_exit(backend, monkeypatch):
    """The values are in, so ``run_spmd`` returns them within the reap
    bound instead of joining the stuck process forever; the forced
    reap is on record in the transport's health table."""
    from repro.mpi.transport import make_transport, sockets

    monkeypatch.setattr(sockets, "_REAP_GRACE", 0.5)
    transport = make_transport(backend)
    t0 = time.monotonic()
    res = run_spmd(_leaves_a_thread_running, 2, recv_timeout=TIMEOUT,
                   backend=transport)
    assert time.monotonic() - t0 < TIMEOUT / 4
    assert res.values == [2.0, 2.0]
    assert transport.net_health[0]["reaped"] is None
    assert transport.net_health[1]["reaped"].startswith("terminated")


def test_forced_reap_lands_in_the_postmortem_network_section(monkeypatch):
    from repro.mpi.transport import sockets
    from repro.obs import FlightRecorder, render_postmortem

    monkeypatch.setattr(sockets, "_REAP_GRACE", 0.5)
    rec = FlightRecorder()
    with pytest.raises(ValueError, match="gives up"):
        run_spmd(_leaves_a_thread_running, 2, True, recv_timeout=TIMEOUT,
                 recorder=rec, backend="procs")
    net = rec.last_postmortem["network"]
    assert net["0"]["reaped"] is None
    assert net["1"]["reaped"].startswith("terminated")
    assert "did not exit at world close" in render_postmortem(
        rec.last_postmortem)
