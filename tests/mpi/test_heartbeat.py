"""The process worker's one periodic frame.

Every ``procs``/``sockets`` worker runs one heartbeat thread: it keeps
the data link alive for the master's liveness deadline and, when a
flight recorder is attached, streams the recorder's events home.  The
thread and the rank's closing report cut from the same cursors, so a
fast heartbeat racing the close is where a lost or doubled event would
show.
"""

from __future__ import annotations

import re
import threading
import time

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.obs import FlightRecorder

PROCESS_BACKENDS = ["procs", "sockets"]
WORLDS = 20


def _chatty_prog(comm):
    """A few hundred recorder events per rank, spread over many ticks of
    a 10 ms heartbeat (and under the recorder's 512-event ring)."""
    peer = (comm.rank + 1) % comm.size
    for i in range(60):
        comm.send(np.full(4, float(i)), peer, tag=i % 7)
        comm.recv((comm.rank - 1) % comm.size, tag=i % 7)
        if i % 10 == 0:
            time.sleep(0.01)
    return comm.rank


def _stream(backend):
    rec = FlightRecorder()
    assert run_spmd(_chatty_prog, 2, recorder=rec,
                    backend=backend).values == [0, 1]
    return rec


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_streamed_events_arrive_once_each(backend, monkeypatch):
    """The master's copy of every rank's stream is seq 0..n-1 with no gap
    and no duplicate, world after world, and n is the threads count."""
    monkeypatch.setenv("REPRO_SOCKETS_HEARTBEAT", "0.01")
    reference = _stream("threads")
    counts = {rank: reference.recorded(rank) for rank in (0, 1)}
    assert all(200 <= n < reference.capacity for n in counts.values())
    for world in range(WORLDS):
        rec = _stream(backend)
        for rank, n in counts.items():
            seqs = [event[0] for event in rec.events(rank)]
            assert seqs == list(range(n)), (world, rank)


def _periodic_threads(comm):
    # A timer thread of the runtime is named for the frame it sends.
    return sorted(thread.name for thread in threading.enumerate()
                  if re.fullmatch(r"spmd-(heartbeat|sock-ping)-\d+",
                                  thread.name))


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_a_recorded_worker_runs_one_periodic_thread(backend):
    res = run_spmd(_periodic_threads, 2, recorder=FlightRecorder(),
                   backend=backend)
    assert res.values == [["spmd-heartbeat-0"], ["spmd-heartbeat-1"]]
