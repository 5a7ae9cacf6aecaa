"""Stress and property tests for the MPI runtime: random schedules,
failure injection, and cross-collective invariants."""

from __future__ import annotations

import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommunicatorError
from repro.faults import FaultPlan, NetworkFaultRule
from repro.mpi import run_spmd


class TestRandomizedSchedules:
    @given(
        seed=st.integers(0, 10**6),
        p=st.integers(2, 6),
        nmsg=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_point_to_point_traffic(self, seed, p, nmsg):
        """A random but matched send/recv schedule always delivers every
        payload to the right (destination, tag) with FIFO per channel."""
        rng = np.random.default_rng(seed)
        # schedule[i] = (src, dst, tag, value)
        schedule = [
            (int(rng.integers(p)), int(rng.integers(p)), int(rng.integers(3)), i)
            for i in range(nmsg)
        ]

        def prog(comm):
            me = comm.rank
            for src, dst, tag, val in schedule:
                if src == me:
                    comm.send(np.array([val]), dst, tag=tag)
            got = []
            for src, dst, tag, val in schedule:
                if dst == me:
                    got.append((src, tag, int(comm.recv(src, tag=tag)[0])))
            return got

        res = run_spmd(prog, p)
        for me in range(p):
            expected = [
                (src, tag, val) for src, dst, tag, val in schedule if dst == me
            ]
            assert res[me] == expected

    @given(
        seed=st.integers(0, 10**6),
        p=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_collective_sequences(self, seed, p):
        """Any uniform sequence of collectives completes and agrees."""
        rng = np.random.default_rng(seed)
        ops = [rng.choice(["bcast", "allreduce", "allgather", "barrier", "alltoall"])
               for _ in range(6)]
        roots = [int(rng.integers(p)) for _ in ops]

        def prog(comm):
            out = []
            for op, root in zip(ops, roots):
                if op == "bcast":
                    v = comm.bcast(np.array([root * 1.0]) if comm.rank == root else None,
                                   root=root)
                    out.append(float(v[0]))
                elif op == "allreduce":
                    out.append(float(comm.allreduce(np.array([1.0]))[0]))
                elif op == "allgather":
                    out.append(tuple(comm.allgather(comm.rank)))
                elif op == "alltoall":
                    r = comm.alltoall([np.array([comm.rank])] * comm.size)
                    out.append(tuple(int(x[0]) for x in r))
                else:
                    comm.barrier()
                    out.append("b")
            return out

        res = run_spmd(prog, p)
        for vals in res.values[1:]:
            assert vals == res[0]


class TestFailureInjection:
    @pytest.mark.parametrize("failing_rank", [0, 2])
    def test_failure_during_collective_unblocks_world(self, failing_rank):
        def prog(comm):
            if comm.rank == failing_rank:
                raise RuntimeError("injected fault")
            # Everyone else enters a collective that can never complete.
            comm.allreduce(np.array([1.0]))

        with pytest.raises(RuntimeError, match="injected fault"):
            run_spmd(prog, 4, recv_timeout=5.0)

    def test_failure_during_butterfly(self):
        from repro.dist import butterfly_tsqr_reduce

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("mid-tree fault")
            R = np.triu(np.ones((3, 3)))
            butterfly_tsqr_reduce(comm, R)

        with pytest.raises(ValueError, match="mid-tree fault"):
            run_spmd(prog, 4, recv_timeout=5.0)

    def test_first_error_wins_reporting(self):
        """Whichever real exception occurred is reported, not the
        secondary CommunicatorErrors it causes on other ranks."""

        def prog(comm):
            if comm.rank == comm.size - 1:
                raise KeyError("root cause")
            comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(KeyError, match="root cause"):
            run_spmd(prog, 3, recv_timeout=5.0)

    def test_world_not_reusable_after_abort(self):
        holder = {}

        def prog(comm):
            holder["comm"] = comm
            if comm.rank == 0:
                raise RuntimeError("die")
            comm.barrier()

        with pytest.raises(RuntimeError):
            run_spmd(prog, 2, recv_timeout=5.0)
        with pytest.raises(CommunicatorError):
            holder["comm"].send(np.zeros(1), 0)


class TestScaleSmoke:
    def test_many_ranks(self):
        """32 simulated ranks through a full collective battery."""

        def prog(comm):
            total = comm.allreduce(np.array([comm.rank + 1.0]))
            sub = comm.split(color=comm.rank % 4)
            subtotal = sub.allreduce(np.array([1.0]))
            comm.barrier()
            return float(total[0]), float(subtotal[0])

        res = run_spmd(prog, 32)
        assert all(v == (32 * 33 / 2, 8.0) for v in res.values)

    def test_large_payload_integrity(self):
        payload = np.random.default_rng(0).standard_normal(200_000)

        def prog(comm):
            got = comm.bcast(payload if comm.rank == 0 else None, root=0)
            return float(np.abs(got - payload).max())

        res = run_spmd(prog, 4)
        assert all(v == 0.0 for v in res.values)


# ----------------------------------------------------------------------
# Soak of the worker-to-worker data plane (ROADMAP item 1)
# ----------------------------------------------------------------------
_SOAK_SECONDS = 1.0
_SOAK_BURST = 3  # messages per ordered pair per round
_SOAK_DTYPES = (np.uint8, np.int16, np.float32, np.float64, np.complex64)


def _soak_message(seed: int, src: int, dst: int, index: int):
    """The ``index``-th message ``src`` sends ``dst``: ``(tag, array,
    moved)``, generated identically on both ends.  0 B to 4 MiB
    (log-uniform, so every size class turns up), mixed dtypes, 1-D or
    2-D in C or F order; half are moved (``copy=False``: the buffer
    travels as it lies and arrives frozen), half copied."""
    rng = np.random.default_rng([seed, src, dst, index])
    tag = int(rng.integers(3))
    dtype = np.dtype(_SOAK_DTYPES[int(rng.integers(len(_SOAK_DTYPES)))])
    nbytes = 0 if rng.random() < 0.05 else int(2 ** rng.uniform(0, 22))
    count = nbytes // dtype.itemsize
    arr = np.frombuffer(bytearray(rng.bytes(count * dtype.itemsize)), dtype)
    layout = int(rng.integers(3))
    if layout and count % 4 == 0:
        arr = arr.reshape((4, count // 4), order="C" if layout == 1 else "F")
    return tag, arr, bool(rng.random() < 0.5)


def _soak_prog(comm, seed: int, seconds: float):
    """Every ordered pair exchanges bursts of self-checking messages
    until rank 0's clock runs out.  Each message carries its index in
    its channel and the CRC of its bytes; a receiver takes a burst tag
    by tag — not in the order it was sent — and checks that what
    arrives on each (source, tag) is the next message of that channel,
    bitwise the one the sender built."""
    me, peers = comm.rank, [r for r in range(comm.size) if r != comm.rank]
    deadline = time.monotonic() + seconds
    rounds = messages = nbytes = 0
    while True:
        base = rounds * _SOAK_BURST
        for dst in peers:
            for index in range(base, base + _SOAK_BURST):
                tag, arr, moved = _soak_message(seed, me, dst, index)
                stamp = np.array([index, zlib.crc32(arr.tobytes())])
                comm.send((stamp, arr), dst, tag=tag, copy=not moved)
        for src in reversed(peers):
            burst = [(index, *_soak_message(seed, src, me, index))
                     for index in range(base, base + _SOAK_BURST)]
            for tag in (2, 0, 1):
                for index, sent_tag, want, moved in burst:
                    if sent_tag != tag:
                        continue
                    stamp, got = comm.recv(src, tag=tag)
                    assert int(stamp[0]) == index, (src, tag, stamp, index)
                    assert zlib.crc32(got.tobytes()) == int(stamp[1])
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.flags.writeable == (not moved)
                    if moved:
                        assert got.flags.f_contiguous == want.flags.f_contiguous
                    assert got.tobytes() == want.tobytes()
                    messages += 1
                    nbytes += got.nbytes
        rounds += 1
        if not comm.bcast(time.monotonic() < deadline if me == 0 else None,
                          root=0):
            break
    comm.barrier()
    # exactly once: nothing is left over in this rank's mailbox
    assert not comm.context.mailbox(comm.comm_id, comm.world_rank).pending()
    return rounds, messages, nbytes


@pytest.mark.parametrize("nprocs", [3, 4])
@pytest.mark.parametrize("backend", ["procs", "sockets"])
class TestDataPlaneSoak:
    def test_every_pair_exchanges_checksummed_payloads(self, backend, nprocs):
        res = run_spmd(_soak_prog, nprocs, 20260929, _SOAK_SECONDS,
                       backend=backend, recv_timeout=60)
        rounds = {v[0] for v in res.values}
        assert len(rounds) == 1 and rounds.pop() >= 1
        per_rank = next(iter({v[1] for v in res.values}))
        assert per_rank == res.values[0][0] * _SOAK_BURST * (nprocs - 1)

    def test_a_reset_mid_stream_loses_and_duplicates_nothing(self, backend,
                                                              nprocs):
        """Two ranks have a peer link reset under them mid-stream (one
        early, one a few rounds in): the interrupted frame is
        retransmitted on the reconnected link, which waits behind the
        old socket's unread frames — every check of the soak still
        holds, and both resets are in the fault trace."""
        plan = FaultPlan(seed=5, network=(
            NetworkFaultRule("reset", ranks=(1,), after_frames=4),
            NetworkFaultRule("reset", ranks=(2,), after_frames=29),
        ))
        res = run_spmd(_soak_prog, nprocs, 7, _SOAK_SECONDS / 2, faults=plan,
                       backend=backend, recv_timeout=60)
        assert len({v[0] for v in res.values}) == 1
        fired = [key[:3] for key in res.faults.trace_key()]
        assert (1, 4, "net:reset") in fired and (2, 29, "net:reset") in fired
