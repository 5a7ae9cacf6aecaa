"""Socket transport: ranks as processes joined by framed stream links.

The execution model of both process backends (``procs`` is this module
over ``AF_UNIX``, see :mod:`~repro.mpi.transport.procs`): every rank is
a worker process holding its own mailboxes; payloads travel **worker to
worker**, one hop; the master runs the control plane and never sees a
payload.  Everything above the wire is shared via
:mod:`~repro.mpi.transport.worldproxy`; this module owns the sockets.

Each worker keeps three kinds of connection:

* a duplex **ctl** link to the master — blocking RPCs one way, the
  master's out-of-band pushes (world table, abort, bye) the other,
  applied by a reader thread so a rank blocked on its own mailbox
  still hears of a dead partner;
* a one-way **data** link to the master, for heartbeats and
  injected-fault notices *only*;
* one directed **peer** link per ordered pair of ranks, opened lazily
  on the first send, carrying ``put`` frames.  The sender writes on
  the rank's own thread; the receiver runs one reader thread per
  inbound link that decodes frames straight into the local mailbox
  and blocks on nothing but its socket (mailboxes are unbounded),
  which is what makes a blocking send safe against the symmetric-send
  deadlock.  Per-source FIFO order is the link's.

* **Rendezvous handshake.**  The master binds a listener and hands each
  worker ``(address, token, rank)``; each worker binds a listener of
  its own and reports it in its data hello; once every worker has
  raised both links the master hands out the **address book** with
  the world table.
  Every connection — to the master or to a peer — opens with a
  pickle-free JSON ``hello`` control frame (purpose, rank, token,
  connect bookkeeping — primitive fields only); the accepting side
  verifies the token with a constant-time comparison *before*
  deserializing anything else from the connection, then acknowledges
  (JSON again) — the pickled framing starts only after this
  authentication.

* **Framing and codec.**  Frames are length-prefixed
  (:class:`~repro.mpi.transport.net.FramedSocket`): a pickled
  array-free header plus the raw bytes of its ndarrays via the shared
  :mod:`~repro.mpi.transport.codec` — array data is never pickled,
  which is why results are bitwise identical across backends.

* **Retry with backoff.**  Connects and reconnects run under a
  :class:`~repro.mpi.transport.net.RetryPolicy` (bounded exponential
  backoff with jitter against reconnect stampedes).  A mid-stream
  reset of a peer link is survived transparently: the sender
  reconnects under the policy, re-hellos with a bumped generation, and
  retransmits the frame the reset interrupted; the receiver parks the
  newcomer until the old socket is drained and retired.  A peer that
  stays unreachable while the master still calls it running poisons
  that one path: the loss is reported at the next send to it and with
  the lifecycle report.  Frames for a rank the master has declared
  gone are dropped, as an MPI send to a dead process would be.

* **Heartbeats and liveness.**  Every worker runs one heartbeat thread
  on the data link (interval ``heartbeat_interval``; the frame carries
  the flight recorder's stream when one is attached, see
  :class:`~repro.mpi.transport.worldproxy.Heartbeat`); the master
  stamps ``last_rx`` on every arriving frame and declares a worker
  lost when the link stays silent past ``liveness_timeout`` — surfacing
  :class:`~repro.errors.RankFailedError` to blocked partners instead
  of hanging.  OS-level TCP keepalive backs the application
  heartbeats.

* **Graceful degradation.**  A worker lost to an *injected* network
  partition (see :class:`~repro.faults.NetworkFaultRule`) is recorded
  as :class:`~repro.errors.RankKilledError` — the launcher treats it
  exactly like an injected crash, so fault-tolerant drivers
  revoke/shrink and complete on the survivors rather than aborting the
  world.  Because injection is simulated, the victim ships its
  ``FaultEvent`` record in-band just before going dark, which is how
  the master attributes the silence to the partition in the
  postmortem's ``network`` section.  Injected faults count the rank's
  ``put`` frames in program order, whichever link carries them.

Workers are always **forked** and connect back to the master's
listener, so closures and caller objects work unchanged and the whole
conformance suite runs on real sockets.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import queue
import socket
import threading
import time
from typing import Any

from ...errors import (
    CommunicatorError,
    RankFailedError,
    RankKilledError,
    WorldAbortedError,
)
from ...faults.network import NetworkFaultState
from .base import Transport
from .codec import (
    decode_exception,
    descr_nbytes,
    encode_envelope,
    encode_exception,
    join_arrays,
    prepare_arrays,
    split_arrays,
)
from .net import (
    DEFAULT_CONNECT_POLICY,
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LIVENESS_TIMEOUT,
    FramedSocket,
    LinkClosed,
    LinkTimeout,
    RetryPolicy,
)
from .worldproxy import (
    DRAIN_TIMEOUT,
    WorkerConfig,
    WorldServerMixin,
    run_worker,
)

__all__ = ["SocketTransport"]

#: Environment overrides for the CLI and test harnesses.
LIVENESS_ENV_VAR = "REPRO_SOCKETS_LIVENESS"
HEARTBEAT_ENV_VAR = "REPRO_SOCKETS_HEARTBEAT"

# Seconds a link reader sleeps between looks at its link's state (a
# successor waiting behind a black-holed socket, the liveness deadline).
_DATA_TICK = 0.2
# Seconds a half-open connection gets to complete its hello.
_HELLO_TIMEOUT = 10.0
# Seconds a worker whose protocol is over gets to exit (and, failing
# that, to die of each signal) when the world closes.
_REAP_GRACE = 3.0


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


# ----------------------------------------------------------------------
# Connection establishment (every side)
# ----------------------------------------------------------------------
def _dial(addr) -> socket.socket:
    """Connect to a listener: ``(host, port)`` is TCP, a path ``AF_UNIX``."""
    if isinstance(addr, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(_HELLO_TIMEOUT)
            sock.connect(addr)
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection(tuple(addr), timeout=_HELLO_TIMEOUT)


def _listen_near(addr) -> socket.socket:
    """A listener of the family of ``addr``, reachable where it is: a
    sibling path for ``AF_UNIX``, the same host for TCP."""
    if isinstance(addr, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(f"{addr}.{os.getpid()}")
        sock.listen()
        return sock
    return socket.create_server((addr[0], 0))


def _connect_framed(addr, hello: dict, policy: RetryPolicy, netstate,
                    counters: dict, sleep=time.sleep) -> FramedSocket:
    """Dial a listener and complete the hello handshake, with retry.

    ``addr`` is the address or a callable that looks it up before each
    attempt (and may raise to give up).  ``netstate`` (when present)
    gets a crack at every attempt first — injected ``connect_refused``
    rules raise the same ``ConnectionRefusedError`` a closed port
    would, and the policy rides them out exactly like the real thing.
    ``counters`` tallies attempts/retries for the hello info the
    master's health table and ``CommTrace.record_connect_retry`` are
    fed from.

    The hello exchange is pickle-free in both directions (JSON control
    frames, :meth:`~repro.mpi.transport.net.FramedSocket.send_json`):
    the pickled framing only starts after the accepting side has
    verified the token and acknowledged, so an unauthenticated peer
    never gets to feed either side a pickle.
    """
    def attempt() -> socket.socket:
        target = addr() if callable(addr) else addr
        counters["attempts"] += 1
        if netstate is not None:
            netstate.on_connect_attempt(hello["purpose"])
        return _dial(target)

    def on_retry(_attempt: int, _exc: BaseException) -> None:
        counters["retries"] += 1

    sock = policy.run(attempt, retry_on=(OSError,), on_retry=on_retry,
                      sleep=sleep)
    fs = FramedSocket(sock)
    fs.send_json(dict(hello, kind="hello", attempts=counters["attempts"],
                      retries=counters["retries"]))
    try:
        reply = fs.recv_json(timeout=_HELLO_TIMEOUT)
    except (LinkClosed, LinkTimeout):
        reply = None
    if not (isinstance(reply, dict) and reply.get("kind") == "ok"):
        fs.close()
        raise CommunicatorError(
            f"socket handshake rejected for rank {hello['rank']} "
            f"({hello['purpose']})"
        )
    return fs


def _serve_hellos(listener, token: str, nranks: int, purposes: tuple,
                  attach, shutdown: threading.Event) -> None:
    """Accept connections and authenticate their hellos until shut down.

    Blocks in ``accept`` — whoever sets ``shutdown`` wakes it with
    :func:`_wake_listener`.  The hello is a bounded JSON frame —
    nothing from a connection is unpickled (or even trusted as a
    tuple) until the token has passed a constant-time comparison.  A
    stray or hostile client gets its socket closed, never a
    ``pickle.loads`` of its bytes.  ``attach(fs, hello)`` acknowledges
    and takes ownership of an authenticated connection.
    """
    while True:
        try:
            sock, _peer = listener.accept()
        except OSError:  # listener closed
            return
        if shutdown.is_set():
            sock.close()
            return
        fs = FramedSocket(sock)
        try:
            hello = fs.recv_json(timeout=_HELLO_TIMEOUT)
        except (LinkClosed, LinkTimeout):
            fs.close()
            continue
        peer_token = hello.get("token")
        rank = hello.get("rank")
        if not (hello.get("kind") == "hello"
                and isinstance(peer_token, str)
                and hmac.compare_digest(peer_token, token)
                and isinstance(rank, int) and 0 <= rank < nranks
                and hello.get("purpose") in purposes):
            fs.close()  # wrong token / stray connection: reject
            continue
        try:
            attach(fs, hello)
        except LinkClosed:
            fs.close()


def _wake_listener(listener) -> None:
    """Unblock a thread sitting in ``listener.accept()``."""
    try:
        _dial(listener.getsockname()).close()
    except OSError:
        pass


class _SockLink:
    """Receiving-side state of one remote rank's connections.

    The master keeps one per worker (its ctl and data links); a worker
    keeps one per peer that sends to it (the inbound peer link, as
    ``data``).
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.ctl: FramedSocket | None = None
        self.data: FramedSocket | None = None
        # A reconnect that arrived while ``data`` still had frames to
        # drain: it takes over when the reader retires ``data``.
        self.next_data: FramedSocket | None = None
        self.data_gen = 0
        self.cond = threading.Condition()  # guards ctl/data attachment
        self.send_lock = threading.Lock()  # serializes ctl replies + oob
        self.last_rx = time.monotonic()
        self.received = 0  # put frames filed from this link (worker side)
        self.partitioned = False
        self.finished = False  # lifecycle RPC processed, or declared lost
        self.proc = None  # the forked worker (master side)
        self.ctl_thread = None  # serves its RPCs until it hangs up (master)

    def attach(self, purpose: str, fs: FramedSocket) -> None:
        with self.cond:
            if purpose == "ctl":
                self.ctl = fs
            elif self.data is None:
                self.data = fs
                self.data_gen += 1
                self.last_rx = time.monotonic()
            else:
                # The sender reconnected before the reader saw the old
                # socket's EOF/reset.  Frames it shipped before the reset
                # may still sit unread in the old socket: switching now
                # would lose them, so the newcomer waits its turn.
                if self.next_data is not None:
                    self.next_data.close()
                self.next_data = fs
            self.cond.notify_all()

    def retire_data(self, gen: int) -> None:
        """Drop the data socket of generation ``gen`` (reset/EOF seen, or
        drained and silent with a successor waiting); the successor, if
        any, takes over.

        A replacement attached concurrently has a newer generation and
        is left alone.
        """
        with self.cond:
            if self.data_gen == gen:
                self.data, self.next_data = self.next_data, None
                if self.data is not None:
                    self.data_gen += 1
                    self.last_rx = time.monotonic()

    def wait_ready(self, deadline: float) -> bool:
        with self.cond:
            while self.ctl is None or self.data is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.cond.wait(remaining)
            return True

    def close(self) -> None:
        """Close every socket and wake the link's reader."""
        with self.cond:
            for fs in (self.ctl, self.data, self.next_data):
                if fs is not None:
                    fs.close()
            self.cond.notify_all()

    def drain(self, handle, stop=lambda: False, lost=lambda: False,
              at_eof=lambda: None) -> None:
        """Read ``data`` frame by frame into ``handle(header, arrays)``.

        The reader of one link, on its own thread.  A socket that hits
        EOF or a reset is retired and its parked successor (if any)
        takes over; a silent socket with a successor waiting is retired
        too (a black-holed link never delivers its EOF).  ``stop()`` is
        looked at between frames; ``lost()`` whenever the link is
        silent or has no socket — returning True ends the reader;
        ``at_eof()`` runs after a socket is retired.
        """
        while not stop():
            with self.cond:
                fs, gen = self.data, self.data_gen
            if fs is None:
                if lost():
                    return
                with self.cond:
                    if self.data is None and not stop():
                        self.cond.wait(_DATA_TICK)
                continue
            try:
                header, arrays = fs.recv(timeout=_DATA_TICK)
            except LinkTimeout:
                if self.next_data is not None:
                    self.retire_data(gen)
                elif lost():
                    return
                continue
            except LinkClosed:
                self.retire_data(gen)
                at_eof()
                continue
            self.last_rx = time.monotonic()
            handle(header, arrays)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _SockChannel:
    """Worker-side RPC client over the ctl link.

    One caller (the rank's main thread), so requests never interleave;
    one reader thread, which hands replies to the caller and applies
    the master's pushes as they arrive — also while the rank is blocked
    on its own mailbox or busy computing.  After an injected partition
    the control link is as unreachable as every other: calls raise
    :class:`~repro.errors.RankKilledError`, which the rank-program
    harness reports as an injected death.
    """

    def __init__(self, fs: FramedSocket, netstate) -> None:
        self._fs = fs
        self._net = netstate
        self._replies: queue.SimpleQueue = queue.SimpleQueue()
        self._bye = threading.Event()
        self._expected: dict | None = None

    def start(self, state) -> None:
        threading.Thread(target=self._read, args=(state,), daemon=True,
                         name="spmd-sock-ctl").start()

    def _read(self, state) -> None:
        while True:
            try:
                header, arrays = self._fs.recv(None)
            except LinkClosed:
                # The master is gone: fail the pending call, end the
                # linger, and stop the rank wherever it is blocked.
                state.apply_oob(("oob", "abort", "SPMD master is gone"))
                self._replies.put(None)
                self._bye.set()
                return
            if header[0] != "oob":
                self._replies.put((header, arrays))
            elif header[1] == "bye":
                self._expected = header[2]
                self._bye.set()
            else:
                state.apply_oob(header)

    def _check_dark(self) -> None:
        if self._net is not None and self._net.dark:
            raise RankKilledError(
                "injected network partition severed the control link"
            )

    def call(self, method: str, *args) -> Any:
        self._check_dark()
        skeleton, arrays = split_arrays(args)
        views, descrs = prepare_arrays(arrays)
        try:
            self._fs.send(("rpc", method, skeleton), descrs, views)
        except LinkClosed as exc:
            raise WorldAbortedError(
                f"SPMD master is gone ({method} RPC failed: {exc})"
            ) from None
        reply = self._replies.get()
        if reply is None:
            self._replies.put(None)  # and for every call after this one
            self._check_dark()
            raise WorldAbortedError(
                f"SPMD master is gone (no reply to {method})"
            )
        header, arrays = reply
        if header[0] == "err":
            raise decode_exception(header[1])
        return join_arrays(header[1], arrays)

    def wait_bye(self) -> dict | None:
        """Block until the master closes the world; the frames to take
        in first (``{source: count}``), or ``None`` with no master."""
        if self._net is not None and self._net.dark:
            return None
        self._bye.wait()
        return self._expected

    def close(self) -> None:
        self._fs.close()


class _OutLink:
    """Sending end of the peer link to one destination rank."""

    __slots__ = ("fs", "generation", "sent")

    def __init__(self) -> None:
        self.fs: FramedSocket | None = None
        self.generation = 0  # connections opened so far
        self.sent = 0  # frames the socket took whole


class _PeerGone(Exception):
    """The destination stopped running while a send was trying to reach it."""


class _PeerWire:
    """A worker's data plane: peer links out and in, and the data link
    up to the master.

    Outbound, :meth:`send_put` runs on the rank's thread: it writes the
    frame on the link to the destination, opening it on first use,
    passing every frame through the injected-fault engine (a reset
    closes-with-RST then reconnects and retransmits, a partition ships
    its fault record and severs everything), and giving a real send
    failure one reconnect-and-resend before the path is declared
    broken.  Inbound, an accept thread authenticates peers and starts a
    reader per link that files frames into the context's mailboxes.
    """

    def __init__(self, rank: int, token: str,
                 listener: socket.socket, master: FramedSocket, master_addr,
                 master_hello: dict, policy: RetryPolicy, netstate,
                 counters: dict) -> None:
        self.rank = rank
        self._token = token
        self._listener = listener
        self._master = master
        self._master_addr = master_addr
        self._master_hello = master_hello
        self._master_gen = 1
        self._policy = policy
        self._net = netstate
        self._counters = counters
        self._ctx = None
        self._out: dict[int, _OutLink] = {}
        self._in: dict[int, _SockLink] = {}
        self._in_lock = threading.Lock()
        # path failures: dest -> [frames lost, "Type: message"]
        self._lost: dict[int, list] = {}
        # The fault engine and the master data link are shared by the
        # rank thread (puts, fault notices) and the heartbeat thread.
        self._master_lock = threading.Lock()

    def start(self, ctx) -> None:
        self._ctx = ctx
        threading.Thread(
            target=_serve_hellos,
            args=(self._listener, self._token, ctx.world_size, ("peer",),
                  self._attach_peer, threading.Event()),
            daemon=True, name="spmd-sock-peers",
        ).start()

    # -- inbound ---------------------------------------------------------
    def _attach_peer(self, fs: FramedSocket, hello: dict) -> None:
        source = hello["rank"]
        fs.send_json({"kind": "ok"})
        with self._in_lock:
            link = self._in.get(source)
            if link is None:
                link = self._in[source] = _SockLink(source)
                ctx = self._ctx
                threading.Thread(
                    target=link.drain,
                    kwargs={"handle": lambda h, a: ctx.accept_put(link, h, a),
                            "at_eof": ctx.wake_all_mailboxes},
                    daemon=True, name=f"spmd-sock-from-{source}",
                ).start()
        link.attach("data", fs)

    def received(self, source: int) -> tuple:
        """``(frames filed, link at EOF)`` for one source."""
        with self._in_lock:
            link = self._in.get(source)
        if link is None:
            return 0, True
        return link.received, link.data is None

    def counts(self) -> tuple:
        sent = {dest: out.sent for dest, out in list(self._out.items())}
        with self._in_lock:
            received = {src: link.received for src, link in self._in.items()}
        return sent, received

    def report(self) -> dict:
        return {"sent": self.counts()[0],
                "lost": {dest: tuple(entry)
                         for dest, entry in self._lost.items()}}

    # -- outbound --------------------------------------------------------
    def send_put(self, dest: int, comm_id: int, source: int, tag: int,
                 env) -> BaseException | None:
        skeleton, arrays = split_arrays(encode_envelope(env))
        views, descrs = prepare_arrays(arrays)
        header = ("put", comm_id, source, tag, skeleton)
        reset = False
        if self._net is not None:
            nbytes = sum(descr_nbytes(d) for d in descrs)
            reset = self._inject(nbytes)
        lost = self._lost.get(dest)
        if lost is not None:
            if self._ctx.true_status(dest) != "running":
                return None  # unreachable and gone: dropped
            raise CommunicatorError(
                f"socket send path to rank {dest} failed: {lost[1]}"
            )
        try:
            out = self._out_link(dest)
            if reset:
                # The "network" killed the link mid-stream: abort with
                # an RST, reconnect under the retry policy, retransmit.
                out.fs.close(reset=True)
                out.fs = None
                out = self._out_link(dest)
            try:
                out.fs.send(header, descrs, views)
            except LinkClosed:
                # Real transient failure: one reconnect under the
                # policy, then retransmit.  A second failure is final.
                out.fs = None
                out = self._out_link(dest)
                out.fs.send(header, descrs, views)
            out.sent += 1
            return None
        except _PeerGone:
            return None  # the master called the destination gone: dropped
        except (OSError, CommunicatorError) as exc:
            self._lost[dest] = [1, f"{type(exc).__name__}: {exc}"]
            return CommunicatorError(f"socket send path failed: {exc}")

    def _out_link(self, dest: int) -> _OutLink:
        """The connected link to ``dest``."""
        ctx = self._ctx
        out = self._out.get(dest)
        if out is not None and out.fs is not None:
            return out

        attempts = 0

        def address():
            # A rank that has left the world keeps its listener up until
            # the world closes (what reaches it then is reported as
            # undelivered), so its status only matters once a connect
            # has failed: then the master calling it gone ends the
            # retries, and the frame is dropped.
            nonlocal attempts
            found = ctx.peer_address(dest)
            if found is None or (attempts > 0
                                 and ctx.true_status(dest) != "running"):
                raise _PeerGone()
            attempts += 1
            return found

        if out is None:
            out = self._out[dest] = _OutLink()
        out.fs = _connect_framed(
            address,
            {"purpose": "peer", "rank": self.rank, "token": self._token,
             "generation": out.generation + 1},
            self._policy, self._net, self._counters, sleep=ctx.wait_table,
        )
        out.generation += 1
        return out

    def _inject(self, nbytes: int) -> bool:
        """Pass one ``put`` frame through the fault engine; True when the
        frame's link is to be reset first."""
        net = self._net
        with self._master_lock:
            action = net.on_frame(nbytes, countable=True)
            events = net.drain_events()
            if action == "dark":
                # Injection is simulated, so the victim may tell the
                # master *why* it is about to go silent (the master
                # could never learn this over a real partition) — then
                # never speak again.  The master still waits out the
                # liveness deadline before declaring the rank dead, so
                # detection timing stays honest; only the root-cause
                # attribution is deus ex.
                try:
                    if events:
                        self._master.send(("netfault", events))
                except LinkClosed:  # pragma: no cover - already gone
                    pass
                self._master.close()
                for out in self._out.values():
                    if out.fs is not None:
                        out.fs.close()
            elif events:
                self._send_master(("netfault", events))
        if action == "dark":
            raise RankKilledError(
                "injected network partition severed every link of this rank"
            )
        return action == "reset"

    def _send_master(self, header: tuple) -> None:
        """One frame up the master data link (caller holds the lock)."""
        try:
            self._master.send(header)
        except LinkClosed:
            # One reconnect under the policy, then give up quietly: the
            # link carries bookkeeping only, and a master that stops
            # hearing heartbeats declares this rank lost on its own.
            self._master_gen += 1
            try:
                self._master = _connect_framed(
                    self._master_addr,
                    dict(self._master_hello, generation=self._master_gen),
                    self._policy, self._net, self._counters,
                )
                self._master.send(header)
            except (OSError, CommunicatorError):
                pass

    def notify_master(self, header: tuple) -> None:
        """Best-effort bookkeeping frame (heartbeat, injected-fault
        notice) to the master."""
        with self._master_lock:
            if self._net is not None:
                if self._net.on_frame(0, countable=False) == "dark":
                    return  # partitioned: frames vanish into the void
            self._send_master(header)

    def close(self) -> None:
        self._master.close()
        for out in self._out.values():
            if out.fs is not None:
                out.fs.close()
        self._listener.close()


def _worker_main(addr, token: str, rank: int, fn, args, kwargs,
                 cfg: WorkerConfig, netrules, policy: RetryPolicy,
                 heartbeat_interval: float, listener) -> None:
    """Entry point of a forked worker.

    Raise the ctl link, bind the listener the peers will dial — next to
    the master's for ``AF_UNIX``, on the interface the ctl link left by
    for TCP — report it in the data link's hello, and run the rank.
    """
    # fd hygiene: drop the forked copy of the master's rendezvous
    # listener so the address is released the moment the master closes
    # its own.
    try:
        listener.close()
    except OSError:  # pragma: no cover - already closed
        pass
    netstate = NetworkFaultState(netrules, rank) if netrules else None
    if netstate is not None and not netstate.active:
        netstate = None
    counters = {"attempts": 0, "retries": 0}
    try:
        ctl = _connect_framed(
            addr, {"purpose": "ctl", "rank": rank, "token": token,
                   "generation": 1},
            policy, netstate, counters,
        )
        peers = _listen_near(addr if isinstance(addr, str) else ctl.local)
        listen = peers.getsockname()
        hello = {"purpose": "data", "rank": rank, "token": token,
                 "listen": (listen if isinstance(listen, str)
                            else list(listen[:2]))}
        data = _connect_framed(addr, dict(hello, generation=1), policy,
                               netstate, counters)
        channel = _SockChannel(ctl, netstate)
        wire = _PeerWire(rank, token, peers, data, addr, hello,
                         policy, netstate, counters)
        try:
            run_worker(cfg, rank, fn, args, kwargs, channel, wire,
                       heartbeat_interval)
        finally:
            channel.close()
            wire.close()
            if isinstance(listen, str):
                try:
                    os.unlink(listen)
                except OSError:
                    pass
    except (OSError, CommunicatorError):
        return  # the master's connect grace surfaces "never connected"


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class SocketTransport(WorldServerMixin, Transport):
    """Ranks as processes joined by hardened framed-TCP links."""

    name = "sockets"
    shared_world = False
    # Whether a worker whose links hit EOF is dead on the spot.  Over
    # TCP an EOF may be a reset the worker is about to ride out, so the
    # verdict waits for the liveness deadline.
    eof_is_death = False

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 connect_policy: RetryPolicy | None = None,
                 heartbeat_interval: float | None = None,
                 liveness_timeout: float | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.connect_policy = connect_policy or DEFAULT_CONNECT_POLICY
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else _env_float(HEARTBEAT_ENV_VAR, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.liveness_timeout = (
            liveness_timeout
            if liveness_timeout is not None
            else _env_float(LIVENESS_ENV_VAR, DEFAULT_LIVENESS_TIMEOUT)
        )
        # Seconds a worker gets to raise both links to the master.
        self.connect_grace = max(30.0, 2.0 * self.liveness_timeout)
        self.net_health: dict[int, dict] = {}
        self._shutdown = threading.Event()

    # -- transport interface --------------------------------------------
    # (no ``deliver``: the master is not a rank and sends no messages)
    def _open_listener(self) -> socket.socket:
        return socket.create_server((self.host, self.port))

    def _close_listener(self, listener) -> None:
        listener.close()

    def execute(self, context, fn, args: tuple, kwargs: dict):
        nprocs = context.world_size
        self.reset_world(context)
        self._shutdown = threading.Event()
        self.net_health = {
            r: {"connect_attempts": 0, "retries": 0, "reconnects": 0,
                "heartbeat_age": None, "disconnect": None, "faults": [],
                "reaped": None}
            for r in range(nprocs)
        }
        # Postmortem bundles read the transport's health table off the
        # context (see repro.obs.postmortem, "network" section).
        context.net_health = self.net_health

        token = os.urandom(16).hex()
        listener = self._open_listener()
        addr = listener.getsockname()
        if not isinstance(addr, str):
            addr = addr[:2]
        links = [_SockLink(r) for r in range(nprocs)]
        self._world_cond = threading.Condition()

        context.add_abort_hook(
            lambda reason: self._broadcast(links, ("oob", "abort", reason))
        )
        context.add_state_hook(lambda: self.push_world(context, links))

        cfg = WorkerConfig(context)
        netrules = (
            tuple(context.faults.plan.network)
            if context.faults is not None else ()
        )

        # Workers are launched while the master is still single-threaded
        # (forking a multi-threaded process can deadlock children on
        # locks held at fork time); the listener is already bound, so
        # early connects queue in the accept backlog — and the connect
        # RetryPolicy rides out a full backlog — until the accept
        # thread starts right after.
        for link in links:
            self._fork_worker(link, addr, token, fn, args, kwargs, cfg,
                              netrules, listener)

        accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener, links, token, context),
            daemon=True, name="spmd-sock-accept",
        )
        accept_thread.start()

        threads: list = [accept_thread]

        # Rendezvous: every worker must raise both links within the
        # grace window (injected connect refusals burn into it).
        deadline = time.monotonic() + self.connect_grace
        ready = [link for link in links if link.wait_ready(deadline)]
        # Hello carried each worker's listener: hand out the address
        # book (with the world table) before serving the first RPC.
        self.push_world(context, links)
        for link in links:
            if link not in ready:
                self._declare_lost(
                    link, context,
                    f"never connected within {self.connect_grace:.0f}s",
                )
                continue
            for target, label in ((self._serve_ctl, "ctl"),
                                  (self._serve_data, "data")):
                thread = threading.Thread(
                    target=target, args=(link, context), daemon=True,
                    name=f"spmd-sock-{label}-{link.rank}",
                )
                thread.start()
                threads.append(thread)
            link.ctl_thread = threads[-2]

        # The world is over once every rank has reported or been
        # declared lost.  The workers are still up — a finished rank
        # keeps taking in what its peers send it — so close the world:
        # tell each what to drain to, collect its pending-inbox summary,
        # let it go.
        with self._world_cond:
            while not all(link.finished for link in links):
                self._world_cond.wait()
        for link in links:
            self._push(link, ("oob", "bye", self.expected_frames(link.rank)))

        # Reap every worker, then wake and join the service threads (no
        # one sleeps out a poll tick).  What a worker still has to do is
        # bounded on its side (``await_frames``).
        overdue = time.monotonic() + DRAIN_TIMEOUT + _REAP_GRACE
        for link in links:
            self._reap(link, overdue)
        self._stop_accepting(listener)
        now = time.monotonic()
        for link in links:
            self.net_health[link.rank]["heartbeat_age"] = round(
                now - link.last_rx, 3)
            link.close()
        for thread in threads:
            thread.join(timeout=10.0)
        self._close_listener(listener)
        self.warm_parent()
        return self._values, self._clocks, self._errors

    def _reap(self, link: _SockLink, overdue: float) -> None:
        """Join one worker process — by force if it will not exit.

        A worker closes its ctl link when its protocol is over, which
        ends the link's ctl service thread; wait for that (until
        ``overdue``), then allow interpreter exit ``_REAP_GRACE``
        seconds.  A rank program that left a non-daemon thread running
        holds ``multiprocessing``'s shutdown for as long as the thread
        lives; its value is already in, so the world does not wait.
        """
        proc = link.proc
        if link.ctl_thread is not None:
            link.ctl_thread.join(max(0.0, overdue - time.monotonic()))
        proc.join(_REAP_GRACE)
        for how, stop in (("terminated", proc.terminate),
                          ("killed", proc.kill)):
            if not proc.is_alive():
                return
            stop()
            proc.join(_REAP_GRACE)
            self.net_health[link.rank]["reaped"] = (
                f"{how}: worker process {proc.pid} did not exit at world "
                f"close")

    def _stop_accepting(self, listener) -> None:
        """End the accept loop now, not at its next wake-up."""
        self._shutdown.set()
        _wake_listener(listener)

    # -- worker launch ---------------------------------------------------
    def _fork_worker(self, link, addr, token, fn, args, kwargs, cfg,
                     netrules, listener) -> None:
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise CommunicatorError(
                f"backend={self.name!r} forks its workers (POSIX only); "
                f"use backend='threads' on this platform"
            ) from None
        # The fork start method passes args by reference, so the child
        # gets the listener object to close its inherited fd copy.
        link.proc = mp_ctx.Process(
            target=_worker_main,
            args=(addr, token, link.rank, fn, args, kwargs, cfg, netrules,
                  self.connect_policy, self.heartbeat_interval, listener),
            name=f"spmd-{self.name}-rank-{link.rank}",
            daemon=True,
        )
        link.proc.start()

    # -- rendezvous/accept loop ------------------------------------------
    def _accept_loop(self, listener, links, token: str, context) -> None:
        def attach(fs: FramedSocket, hello: dict) -> None:
            purpose, rank = hello["purpose"], hello["rank"]
            link = links[rank]
            self._note_hello(context, link, hello)
            fs.send_json({"kind": "ok", "world": len(links)})
            link.attach(purpose, fs)

        _serve_hellos(listener, token, len(links), ("ctl", "data"), attach,
                      self._shutdown)

    def _note_hello(self, context, link: _SockLink, hello: dict) -> None:
        """Fold a hello's bookkeeping into health, comm trace and book."""
        h = self.net_health[link.rank]
        h["connect_attempts"] = max(h["connect_attempts"],
                                    int(hello.get("attempts", 0)))
        new_retries = int(hello.get("retries", 0)) - h["retries"]
        if new_retries > 0:
            h["retries"] += new_retries
            trace = context.comm_trace
            if trace is not None:
                for _ in range(new_retries):
                    trace.record_connect_retry(link.rank)
        listen = hello.get("listen")
        if listen is not None:
            self._book[link.rank] = (
                listen if isinstance(listen, str) else tuple(listen))
        generation = int(hello.get("generation", 1))
        if hello["purpose"] == "data" and generation > 1:
            h["reconnects"] += 1
            h.setdefault("reconnect_log", []).append(round(time.time(), 3))

    # -- out-of-band push ------------------------------------------------
    @staticmethod
    def _push(link: _SockLink, header: tuple) -> None:
        fs = link.ctl
        if fs is None:
            return
        with link.send_lock:
            try:
                fs.send(header)
            except LinkClosed:
                pass  # worker already gone

    def _broadcast(self, links, header: tuple) -> None:
        for link in list(links):
            self._push(link, header)

    def push_world(self, context, links) -> None:
        """Hand the current world table to every rank still running.

        Snapshot and sends happen under one lock, so tables reach each
        worker in the order they were taken.  A rank that has reported
        runs no more receives; it is skipped.
        """
        with self._push_lock:
            header = ("oob", "world", self.world_table(context))
            for link in list(links):
                if not link.finished:
                    self._push(link, header)

    # -- master service threads -----------------------------------------
    def _reply(self, link: _SockLink, value) -> None:
        skeleton, arrays = split_arrays(value)
        views, descrs = prepare_arrays(arrays)
        with link.send_lock:
            link.ctl.send(("ok", skeleton), descrs, views)

    def _reply_err(self, link: _SockLink, exc: BaseException) -> None:
        with link.send_lock:
            link.ctl.send(("err", encode_exception(exc)))

    def _mark_finished(self, link: _SockLink) -> None:
        with self._world_cond:
            link.finished = True
            self._world_cond.notify_all()

    def _serve_ctl(self, link: _SockLink, context) -> None:
        """Serve one worker's blocking RPCs until it disconnects."""
        fs = link.ctl
        while True:
            try:
                header, arrays = fs.recv(None)
            except LinkClosed:
                break
            if header[0] != "rpc":  # pragma: no cover - protocol noise
                continue
            _, method, skeleton = header
            request = join_arrays(skeleton, arrays)
            try:
                value = self._dispatch(context, link, method, request)
            except BaseException as exc:  # noqa: BLE001 - RPC error path
                try:
                    self._reply_err(link, exc)
                except LinkClosed:
                    break
                continue
            try:
                self._reply(link, value)
            except LinkClosed:
                break
            if method in ("finalize", "rank_killed", "rank_error"):
                self._mark_finished(link)
        if self.eof_is_death and not link.finished:
            self._declare_lost(link, context, "worker process died unexpectedly")

    def _serve_data(self, link: _SockLink, context) -> None:
        """Drain one worker's bookkeeping frames; silence is its death
        certificate.

        The reader wakes every ``_DATA_TICK`` seconds of silence to
        check the liveness deadline, so a partitioned or frozen worker
        surfaces as a failed rank within ``liveness_timeout`` — never a
        hang.  An EOF (reset or process death) retires the socket but
        starts no new clock: either a reconnect replaces it or the
        liveness deadline (running since the last received frame)
        expires.
        """
        def handle(header: tuple, _arrays: list) -> None:
            kind = header[0]
            if kind == "hb":
                # Stamping last_rx was the liveness half; the delta is
                # empty unless a flight recorder is attached.
                self._ingest_heartbeat(context, header[1], header[3])
            elif kind == "netfault":
                self._absorb_netfault(context, link, header[1])

        def lost() -> bool:
            if (link.finished
                    or time.monotonic() - link.last_rx <= self.liveness_timeout):
                return False
            self._declare_lost(
                link, context,
                f"liveness deadline exceeded "
                f"({self.liveness_timeout:.1f}s of silence)"
                if link.data is not None
                else "data link lost and not re-established",
            )
            return True

        link.drain(
            handle, lost=lost,
            stop=self._shutdown.is_set,
        )

    def _absorb_netfault(self, context, link: _SockLink, events) -> None:
        """Fold a worker's injected-network-fault records into the run."""
        events = [tuple(e) for e in events]
        injector = context.faults
        if injector is not None and events:
            injector.absorb(events, {})
        h = self.net_health[link.rank]
        for ev in events:
            kind = ev[2]
            h["faults"].append(kind)
            if kind == "net:partition":
                link.partitioned = True

    def _declare_lost(self, link: _SockLink, context, why: str) -> None:
        """Record a worker's link death and fail the rank (once)."""
        rank = link.rank
        age = time.monotonic() - link.last_rx
        h = self.net_health[rank]
        h["disconnect"] = why
        h["heartbeat_age"] = round(age, 3)
        if context.rank_status(rank) == "running":
            if link.partitioned and context.faults is not None:
                err: CommunicatorError = RankKilledError(
                    f"injected network partition: rank {rank} went silent "
                    f"({why}; last frame {age:.2f}s ago)"
                )
            elif self.eof_is_death:
                err = RankFailedError(f"rank {rank} {why}")
            else:
                err = RankFailedError(
                    f"rank {rank} socket worker lost: {why} "
                    f"(last frame {age:.2f}s ago)"
                )
            if self._errors[rank] is None:
                self._errors[rank] = err
            # The worker can ship no more shards (its link is gone), so
            # a master-side event cannot collide with an absorbed one.
            try:
                context.emit(rank, "fault", "net:lost", reason=why)
            except Exception:  # pragma: no cover - best-effort
                pass
            # It died without a report: peers drain its links to EOF.
            self._sent[rank] = None
            context.mark_failed(rank)
        self._mark_finished(link)
