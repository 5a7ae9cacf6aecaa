"""The sanitizer's and the postmortem's views of a world whose
mailboxes live in the worker processes.

On ``procs`` and ``sockets`` the master never sees a message: the leak
report and the postmortem's ``in_flight`` section are fed from the
pending-inbox summaries the workers hand over, the wait-for graph from
begin/end-wait notices carrying frame counts.  What the user reads must
not have changed: same errors, same messages, call sites in *this*
file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CollectiveMismatchError,
    DeadlockError,
    MessageLeakError,
    RankFailedError,
)
from repro.faults import CrashRule, FaultPlan
from repro.mpi import run_spmd
from repro.obs import FlightRecorder

pytestmark = pytest.mark.parametrize("backend", ["procs", "sockets"])

TIMEOUT = 20.0  # backstop; detection must beat it by an order of magnitude


def _unmatched_send(comm):
    if comm.rank == 0:
        comm.send(np.ones(3), dest=1, tag=4)  # never received
    comm.barrier()


def _recv_cycle(comm):
    peer = 1 - comm.rank
    val = comm.recv(source=peer, tag=0)
    comm.send(val, dest=peer, tag=0)


def _mismatch(comm):
    if comm.rank == 0:
        comm.bcast(np.arange(3), root=0)
    else:
        comm.allreduce(np.ones(3))


def _busy_and_clean(comm):
    """Symmetric exchanges back to back: every rank registers a wait on
    its partner while the partner's message is still on the link — the
    shape a count-blind wait-for graph would call a cycle."""
    peer = (comm.rank + 1) % comm.size
    other = (comm.rank - 1) % comm.size
    total = 0.0
    for i in range(40):
        comm.send(np.full(4, float(i)), peer, tag=i % 3)
        total += float(comm.recv(other, tag=i % 3)[0])
        total += float(comm.allreduce(np.ones(1))[0])
    return total


def test_unmatched_send_is_a_leak_at_the_senders_call_site(backend):
    with pytest.raises(MessageLeakError) as ei:
        run_spmd(_unmatched_send, 2, sanitize=True, recv_timeout=TIMEOUT,
                 backend=backend)
    assert "1 undelivered message(s)" in str(ei.value)
    assert "tag 4, 24 bytes" in str(ei.value)
    assert "rank 1's mailbox" in str(ei.value)
    (diag,) = ei.value.diagnostics
    assert diag.kind == "message-leak" and diag.rank == 0
    assert diag.file.endswith("test_process_backends.py")
    assert diag.extra == {"dest": 1, "tag": 4, "count": 1, "nbytes": 24}


def test_receive_cycle_is_a_deadlock_naming_both_ranks(backend):
    with pytest.raises(DeadlockError) as ei:
        run_spmd(_recv_cycle, 2, sanitize=True, recv_timeout=TIMEOUT,
                 backend=backend)
    assert "deadlock detected (wait-for cycle)" in str(ei.value)
    diags = ei.value.diagnostics
    assert {d.rank for d in diags} == {0, 1}
    for d in diags:
        assert d.kind == "deadlock"
        assert d.file.endswith("test_process_backends.py")
        assert d.extra["awaiting"] == 1 - d.rank


def test_collective_mismatch_carries_both_call_sites(backend):
    with pytest.raises(CollectiveMismatchError) as ei:
        run_spmd(_mismatch, 2, sanitize=True, recv_timeout=TIMEOUT,
                 backend=backend)
    assert "collective order mismatch" in str(ei.value)
    assert "bcast()" in str(ei.value) and "allreduce()" in str(ei.value)
    diags = ei.value.diagnostics
    assert {d.rank for d in diags} == {0, 1}
    lines = set()
    for d in diags:
        assert d.file.endswith("test_process_backends.py")
        lines.add(d.line)
    assert len(lines) == 2  # each rank's own call, not one site twice


def test_messages_still_on_a_link_are_not_a_deadlock(backend):
    res = run_spmd(_busy_and_clean, 3, sanitize=True, recv_timeout=TIMEOUT,
                   backend=backend)
    assert res.values == [sum(range(40)) + 40 * 3.0] * 3
    assert res.sanitizer.findings == []


def test_crash_postmortem_keeps_in_flight_and_network_schema(backend):
    """Rank 0 is killed inside its first operation; rank 1's message to
    it arrives (or not) after its lifecycle report — it is listed all
    the same, from the summary the killed rank's process hands over
    when the world closes."""
    def prog(comm):
        if comm.rank == 1:
            comm.send(np.ones(4), 0, tag=5)
        return comm.recv((comm.rank + 1) % comm.size, tag=9)

    rec = FlightRecorder()
    plan = FaultPlan(seed=7, crashes=(CrashRule(rank=0, at_op=1),))
    with pytest.raises(RankFailedError):
        run_spmd(prog, 2, faults=plan, recorder=rec, sanitize=True,
                 recv_timeout=TIMEOUT, backend=backend)
    bundle = rec.last_postmortem
    assert bundle["schema"] == "repro-postmortem/1"
    (message,) = bundle["in_flight"]
    assert set(message) == {"comm_id", "dest_world_rank", "source_rank",
                            "tag", "nbytes", "moved", "origin"}
    assert (message["dest_world_rank"], message["source_rank"],
            message["tag"], message["nbytes"]) == (0, 1, 5, 32)
    assert "test_process_backends.py" in message["origin"]
    network = bundle["network"]
    assert set(network) == {"0", "1"}
    for health in network.values():
        assert {"connect_attempts", "retries", "reconnects",
                "heartbeat_age", "disconnect", "faults"} <= set(health)
        assert health["disconnect"] is None and health["faults"] == []
