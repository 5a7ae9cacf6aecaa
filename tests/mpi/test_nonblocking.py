"""Nonblocking point-to-point and reduce_scatter tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import run_spmd, waitall


class TestIsendIrecv:
    def test_basic_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(4), dest=1, tag=2)
                assert req.done()
                req.wait()
                return None
            req = comm.irecv(0, tag=2)
            return req.wait()

        res = run_spmd(prog, 2)
        np.testing.assert_array_equal(res[1], np.arange(4))

    def test_test_polls_without_blocking(self):
        def prog(comm):
            if comm.rank == 1:
                req = comm.irecv(0, tag=1)
                first_poll = req.test()[0]  # nothing sent yet... maybe
                comm.barrier()  # rank 0 sends before this barrier
                # After the barrier the message is definitely in the box.
                done, val = req.test()
                assert done
                return int(val[0]), first_poll in (True, False)
            comm.send(np.array([7]), 1, tag=1)
            comm.barrier()
            return None

        res = run_spmd(prog, 2)
        assert res[1][0] == 7

    def test_waitall_ordering(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.isend(np.array([i]), 1, tag=i)
                return None
            reqs = [comm.irecv(0, tag=i) for i in range(5)]
            vals = waitall(reqs)
            return [int(v[0]) for v in vals]

        res = run_spmd(prog, 2)
        assert res[1] == [0, 1, 2, 3, 4]

    def test_overlap_pattern(self):
        """Post all receives first, then sends — the overlap idiom."""

        def prog(comm):
            others = [r for r in range(comm.size) if r != comm.rank]
            reqs = {src: comm.irecv(src, tag=3) for src in others}
            for dst in others:
                comm.isend(np.array([comm.rank * 100 + dst]), dst, tag=3)
            got = {src: int(reqs[src].wait()[0]) for src in others}
            return all(got[src] == src * 100 + comm.rank for src in others)

        assert all(run_spmd(prog, 4).values)

    def test_wait_idempotent(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.array([1.5]), 1)
                return None
            req = comm.irecv(0)
            a = req.wait()
            b = req.wait()  # second wait returns the cached payload
            return float(a[0]), float(b[0])

        res = run_spmd(prog, 2)
        assert res[1] == (1.5, 1.5)

    def test_invalid_args(self):
        def prog(comm):
            comm.irecv(5)

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 2)

    def test_isend_on_a_dead_link_raises_from_test_and_wait(self):
        """An isend whose frame the link lost must raise the loss from
        test() and wait(), never report a successful stage; the rank
        still fails with its send path as the named cause."""
        import time

        from repro.errors import RankFailedError
        from repro.mpi.transport import SocketTransport
        from repro.mpi.transport.net import RetryPolicy

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 1, tag=6)  # raises the peer link
                # Kill the link and point reconnects at a port nothing
                # listens on, so the isend below can never ship.
                ctx = comm.context
                ctx._wire._out[1].fs.close()
                ctx._table["book"][1] = ("127.0.0.1", 1)
                req = comm.isend(np.ones(4), 1, tag=7)
                with pytest.raises(CommunicatorError, match="never reached"):
                    req.test()
                with pytest.raises(CommunicatorError, match="never reached"):
                    req.wait()
                return "finished"
            comm.recv(0, tag=6)
            return comm.recv(0, tag=7)

        transport = SocketTransport(connect_policy=RetryPolicy(
            max_retries=1, base_delay=0.01, backoff_cap=0.02, jitter=0.0))
        t0 = time.monotonic()
        with pytest.raises(RankFailedError, match="send path failed"):
            run_spmd(prog, 2, recv_timeout=60, backend=transport)
        assert time.monotonic() - t0 < 15.0


class TestReduceScatter:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_sum_per_slot(self, p):
        def prog(comm):
            # rank r contributes value r*10+q to slot q
            values = [np.array([comm.rank * 10.0 + q]) for q in range(comm.size)]
            out = comm.reduce_scatter(values)
            expected = sum(r * 10.0 + comm.rank for r in range(comm.size))
            return float(out[0]) == expected

        assert all(run_spmd(prog, p).values)

    def test_custom_op(self):
        def prog(comm):
            values = [np.array([comm.rank + q]) for q in range(comm.size)]
            out = comm.reduce_scatter(values, op=np.maximum)
            return float(out[0])

        res = run_spmd(prog, 3)
        # slot q gets max over r of (r + q): (size-1) + q
        assert res.values == [2.0, 3.0, 4.0]

    def test_array_blocks(self):
        def prog(comm):
            values = [np.full((2, 2), comm.rank, dtype=float) for _ in range(comm.size)]
            out = comm.reduce_scatter(values)
            return float(out[0, 0])

        res = run_spmd(prog, 4)
        assert all(v == 6.0 for v in res.values)  # 0+1+2+3
