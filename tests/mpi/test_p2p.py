"""Point-to-point semantics of the simulated MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import run_spmd


class TestSendRecv:
    def test_basic_exchange(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3)

        res = run_spmd(prog, 2)
        np.testing.assert_array_equal(res[1], np.arange(4))

    def test_fifo_ordering_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(np.array([i]), dest=1, tag=0)
                return None
            return [int(comm.recv(0, tag=0)[0]) for _ in range(10)]

        res = run_spmd(prog, 2)
        assert res[1] == list(range(10))

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0]), 1, tag=5)
                comm.send(np.array([2.0]), 1, tag=9)
                return None
            # receive out of send order by tag
            b = comm.recv(0, tag=9)
            a = comm.recv(0, tag=5)
            return float(a[0]), float(b[0])

        res = run_spmd(prog, 2)
        assert res[1] == (1.0, 2.0)

    def test_send_copies_payload(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.zeros(3)
                comm.send(buf, 1)
                buf[:] = 99.0  # mutation after send must not be visible
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(0)

        res = run_spmd(prog, 2)
        np.testing.assert_array_equal(res[1], np.zeros(3))

    def test_sendrecv_exchange(self):
        def prog(comm):
            partner = comm.rank ^ 1
            got = comm.sendrecv(np.array([comm.rank]), partner)
            return int(got[0])

        res = run_spmd(prog, 4)
        assert res.values == [1, 0, 3, 2]

    def test_sendrecv_self(self):
        def prog(comm):
            return int(comm.sendrecv(np.array([7]), comm.rank)[0])

        assert run_spmd(prog, 2).values == [7, 7]

    def test_invalid_rank(self):
        def prog(comm):
            comm.send(np.zeros(1), dest=5)

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 2)

    def test_negative_user_tag_rejected(self):
        def prog(comm):
            comm.send(np.zeros(1), dest=0, tag=-3)

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 1)


class TestFailureHandling:
    def test_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(1)  # would deadlock without abort

        with pytest.raises(ValueError, match="boom"):
            run_spmd(prog, 2)

    def test_deadlock_detected_by_timeout(self):
        def prog(comm):
            comm.recv((comm.rank + 1) % comm.size)  # everyone receives: deadlock

        with pytest.raises(CommunicatorError, match="timed out|aborted"):
            run_spmd(prog, 2, recv_timeout=0.2)

    def test_zero_procs_rejected(self):
        with pytest.raises(CommunicatorError):
            run_spmd(lambda c: None, 0)

    def test_a_wake_during_the_poll_is_not_lost(self):
        """A state change that lands while a blocked receive is running
        its poll hook (outside the mailbox lock) makes it poll again at
        once, not after the receive timeout.  Seen as a process world
        whose partner was SIGKILLed sitting out the 30 s drain bound: the
        partner's link hit EOF during the poll a world-table push had
        started."""
        import threading
        import time

        from repro.mpi.context import _Mailbox

        box = _Mailbox(threading.Event())
        polls = []

        def poll():
            polls.append(time.monotonic())
            if len(polls) == 1:
                box.wake_all()  # the state change, mid-poll
            else:
                raise RuntimeError("partner gone")

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="partner gone"):
            box.get(0, 0, timeout=10.0, poll=poll)
        assert time.monotonic() - t0 < 5.0
        assert len(polls) == 2


class TestIntrospection:
    def test_rank_size(self):
        res = run_spmd(lambda c: (c.rank, c.size), 3)
        assert res.values == [(0, 3), (1, 3), (2, 3)]

    def test_serial_fast_path(self):
        res = run_spmd(lambda c: c.bcast(42, root=0), 1)
        assert res.values == [42]
