"""FramedSocket receive path: one allocation per payload, and a sockets
master whose resident set does not grow with the number of worlds."""

from __future__ import annotations

import mmap
import os
import pickle
import socket
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.mpi.transport.codec import prepare_arrays
from repro.mpi.transport.net import FramedSocket, LinkClosed

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def link():
    a, b = socket.socketpair()
    left, right = FramedSocket(a), FramedSocket(b)
    yield left, right
    left.close()
    right.close()


def _send_all(sock: FramedSocket, frames) -> threading.Thread:
    def run():
        for header, arrays in frames:
            views, descrs = prepare_arrays(arrays)
            sock.send(header, descrs, views)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _backing(arr: np.ndarray):
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_frames_of_every_size_back_to_back(link):
    """Small frames share one socket read with the head of a large
    payload; a large payload is followed by more frames: nothing is lost
    or reordered at either boundary."""
    left, right = link
    rng = np.random.default_rng(0)
    big = rng.standard_normal(300_000)                      # 2.4 MB
    edge = np.arange(65536 // 8 + 1, dtype=np.float64)      # just over the heap limit
    frozen = rng.standard_normal((40, 50)).astype(np.float32, order="F")
    frozen.flags.writeable = False
    frames = [
        ({"k": 0}, [np.arange(5.0)]),
        ({"k": 1}, [big, np.arange(3, dtype=np.int32)]),
        ({"k": 2}, []),
        ({"k": 3}, [edge, frozen]),
        ({"k": 4}, [np.zeros(0)]),
    ]
    sender = _send_all(left, frames)
    try:
        for header, arrays in frames:
            got_header, got = right.recv(timeout=10)
            assert got_header == header
            assert len(got) == len(arrays)
            for want, have in zip(arrays, got):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.flags.writeable == want.flags.writeable
                assert have.flags.f_contiguous == want.flags.f_contiguous
                np.testing.assert_array_equal(have, want)
    finally:
        sender.join(timeout=10)
    assert not sender.is_alive()
    assert not right.poll(0.0)


class _CountingSocket:
    """A socket that counts the write calls made on it."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.writes: list = []

    def __getattr__(self, name):
        attr = getattr(self._sock, name)
        if name in ("send", "sendall", "sendmsg", "sendto"):
            def counted(*args, **kwargs):
                self.writes.append(name)
                return attr(*args, **kwargs)
            return counted
        return attr


def test_one_frame_is_one_write():
    """Length prefix, header and every array view leave in a single
    ``sendmsg``: an 8-byte message is one segment on a TCP_NODELAY
    socket, not three, and a multi-megabyte one is still one call."""
    a, b = socket.socketpair()
    counting = _CountingSocket(a)
    left, right = FramedSocket(counting), FramedSocket(b)
    frames = [
        ({"k": 0}, []),
        ({"k": 1}, [np.zeros(1)]),
        ({"k": 2}, [np.arange(5.0), np.arange(3, dtype=np.int32), np.zeros(0)]),
        ({"k": 3}, [np.ones(300_000)]),
    ]
    try:
        for header, arrays in frames:
            counting.writes.clear()
            sender = _send_all(left, [(header, arrays)])
            got_header, got = right.recv(timeout=10)
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert got_header == header
            for want, have in zip(arrays, got):
                np.testing.assert_array_equal(have, want)
            assert counting.writes == ["sendmsg"], (header, counting.writes)
        counting.writes.clear()
        left.send_json({"kind": "hello"})
        assert right.recv_json(timeout=10) == {"kind": "hello"}
        assert counting.writes == ["sendmsg"]
    finally:
        left.close()
        right.close()


def test_large_payload_lives_in_its_own_mapping(link):
    """Above 64 KiB the array sits on an anonymous mapping (returned to
    the OS when the array dies), at or below it on the heap; both stay
    writeable in place."""
    left, right = link
    small = np.ones(65536 // 8)
    large = np.ones(65536 // 8 + 1)
    sender = _send_all(left, [({}, [small, large])])
    _, (got_small, got_large) = right.recv(timeout=10)
    sender.join(timeout=10)
    assert isinstance(_backing(got_small), bytearray)
    assert isinstance(_backing(got_large), mmap.mmap)
    got_large += 1.0
    assert got_large[-1] == 2.0


def test_peer_closing_mid_payload_is_link_closed(link):
    left, right = link
    views, descrs = prepare_arrays([np.ones(100_000)])
    blob = pickle.dumps(({}, descrs), protocol=4)
    left._sock.sendall(struct.pack("<I", len(blob)) + blob + bytes(views[0][:1000]))
    left.close()
    with pytest.raises(LinkClosed):
        right.recv(timeout=10)


_WORLDS = textwrap.dedent("""
    import gc, os, sys
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np
    from repro.core import sthosvd
    from repro.dist import DistributedTensor, GridComms, ProcessorGrid
    from repro.mpi import run_spmd

    def rss_mib():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0

    def prog(comm, x):
        comms = GridComms(comm, ProcessorGrid.for_size(comm.size, x.ndim))
        dt = DistributedTensor.from_full(comms, x)
        for _ in range(2):
            res = sthosvd(dt, tol=1e-4, method="qr")
        return res.ranks

    rng = np.random.default_rng(0)
    shape = (48, 48, 33, 48)
    x = np.einsum("ia,ja,ka,la->ijkl", *[rng.standard_normal((s, 6)) for s in shape])
    x = np.asfortranarray(x + 1e-6 * rng.standard_normal(shape), dtype=np.float32)
    for world in range(5):
        run_spmd(prog, 2, x, backend="sockets", recv_timeout=60)
        gc.collect()
        print(rss_mib(), flush=True)
""")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_sockets_master_rss_is_flat_over_worlds():
    """Five sockets worlds in one (fresh) process: the master's resident
    set after world 5 is within 4 MiB of that after world 1.  Before the
    receive path allocated large payloads as their own mappings it grew
    by 15-20 MB per world until the malloc arenas of the per-world reader
    threads stopped growing (+19 MiB on this program, +40 with 3 solves)."""
    done = subprocess.run(
        [sys.executable, "-c", _WORLDS], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    rss = [float(line) for line in done.stdout.split()]
    assert len(rss) == 5
    assert rss[4] <= rss[0] + 4.0, rss


def test_reconnected_data_socket_waits_for_the_old_one_to_drain():
    """A worker that resets its data link reconnects at once; frames it
    shipped before the reset may still be unread on the old socket, so
    the master's reader keeps the old socket until it is retired
    (``test_reset_does_not_corrupt_or_duplicate_messages`` lost a message
    1 run in 5 when the newcomer replaced it on arrival)."""
    from repro.mpi.transport.sockets import _SockLink

    pairs = [socket.socketpair() for _ in range(3)]
    old, new, newer = (FramedSocket(a) for a, _ in pairs)
    link = _SockLink(0)
    try:
        link.attach("data", old)
        link.attach("data", new)
        assert (link.data, link.next_data, link.data_gen) == (old, new, 1)
        link.attach("data", newer)          # supersedes the waiting one
        assert (link.data, link.next_data) == (old, newer)
        link.retire_data(1)
        assert (link.data, link.next_data, link.data_gen) == (newer, None, 2)
        link.retire_data(1)                 # stale generation: ignored
        assert link.data is newer
        link.retire_data(2)
        assert link.data is None
        link.attach("data", old)
        assert (link.data, link.data_gen) == (old, 3)
    finally:
        for fs in (old, new, newer):
            fs.close()
        for _, b in pairs:
            b.close()
