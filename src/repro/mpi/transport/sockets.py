"""Socket transport: the master-resident world over framed TCP links.

The same execution model as the procs backend — rank workers in their
own processes, the authoritative world (mailboxes, rendezvous, rank
status, store, sanitizer) resident in the master, everything above the
wire shared via :mod:`~repro.mpi.transport.worldproxy` — but the wire
is TCP, hardened against the failure modes real networks have and
pipes do not:

* **Rendezvous handshake.**  The master binds a listener and hands each
  worker an address book entry ``(host, port, token, rank)``.  Every
  connection opens with a pickle-free JSON ``hello`` control frame
  (purpose, rank, token, connect bookkeeping — primitive fields only);
  the master verifies the token with a constant-time comparison
  *before* deserializing anything else from the connection, then
  acknowledges (JSON again) and wires the connection into the rank's
  link — the pickled envelope framing starts only after this
  authentication.  Each worker keeps two connections:
  a duplex **ctl** link (blocking RPCs plus out-of-band abort/revoke
  pushes) and a one-way **data** link (message deliveries, telemetry
  heartbeats, liveness pings, injected-fault notices).

* **Framing and codec.**  Frames are length-prefixed
  (:class:`~repro.mpi.transport.net.FramedSocket`): a pickled
  array-free header plus the raw bytes of its ndarrays via the shared
  :mod:`~repro.mpi.transport.codec` — array data is never pickled,
  matching the shm rings byte for byte, which is why results are
  bitwise identical across backends.

* **Retry with backoff.**  Connects and reconnects run under a
  :class:`~repro.mpi.transport.net.RetryPolicy` (bounded exponential
  backoff with jitter against reconnect stampedes).  A mid-stream
  reset of the data link is survived transparently: the pump
  reconnects under the policy, re-hellos with a bumped generation, and
  retransmits the frame the reset interrupted.  Retry counts travel in
  the hello ``info`` and land in
  :meth:`~repro.mpi.tracing.CommTrace.record_connect_retry` and the
  transport's ``net_health``.

* **Heartbeats and liveness.**  Workers always run a ping thread on
  the data path (interval ``heartbeat_interval``); the master stamps
  ``last_rx`` on every arriving frame and declares a worker lost when
  the link stays silent past ``liveness_timeout`` — surfacing
  :class:`~repro.errors.RankFailedError` to blocked partners instead
  of hanging.  OS-level TCP keepalive backs the application
  heartbeats.  A worker that dies with an EOF (crash, SIGKILL) is
  detected the same way the procs backend does, just over sockets.

* **Graceful degradation.**  A worker lost to an *injected* network
  partition (see :class:`~repro.faults.NetworkFaultRule`) is recorded
  as :class:`~repro.errors.RankKilledError` — the launcher treats it
  exactly like an injected crash, so fault-tolerant drivers
  revoke/shrink and complete on the survivors rather than aborting the
  world.  Because injection is simulated, the victim ships its
  ``FaultEvent`` record in-band just before going dark, which is how
  the master attributes the silence to the partition in the
  postmortem's ``network`` section.

Two launch modes share all of the above:

* default — workers are **forked** (like procs) and connect back over
  loopback TCP, so closures and caller objects work unchanged and the
  whole conformance suite runs on real sockets;
* ``hosts=[...]`` — workers are **spawned** via ``python -m
  repro.mpi.transport.sockworker`` and receive a pickled boot blob
  (program + world config) over the ctl link after the handshake.
  The program and its arguments must then be picklable; observability
  objects that cannot cross degrade to worker-local ``None`` (their
  master-side halves still work).  Remote hosts are reached by
  running the same command there by hand or any launcher you like —
  the handshake only needs TCP to ``(host, port)``.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import pickle
import queue
import socket
import subprocess
import sys
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
from ..context import Envelope
from .base import Transport
from .codec import (
    decode_exception,
    decode_origin,
    descr_nbytes,
    encode_exception,
    encode_origin,
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
from .threads import WORLD_COMM_ID
from .worldproxy import SendToken, WorkerConfig, WorldServerMixin, run_worker

__all__ = ["SocketTransport"]

#: Environment overrides for the CLI and test harnesses.
LIVENESS_ENV_VAR = "REPRO_SOCKETS_LIVENESS"
HEARTBEAT_ENV_VAR = "REPRO_SOCKETS_HEARTBEAT"

#: How spawn mode hands the rendezvous token to a sockworker.  The
#: environment, never argv: command lines are world-readable via
#: ps/procfs for the life of the process, which would leak the shared
#: secret to every user on the host.
TOKEN_ENV_VAR = "REPRO_SOCKETS_TOKEN"

# Seconds the master's data thread sleeps between liveness checks.
_DATA_TICK = 0.2
# Seconds a half-open connection gets to complete its hello.
_HELLO_TIMEOUT = 10.0


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


# ----------------------------------------------------------------------
# Connection establishment (both sides)
# ----------------------------------------------------------------------
def _connect_framed(addr, purpose: str, rank: int, token: str,
                    policy: RetryPolicy, netstate, counters: dict,
                    generation: int = 1) -> FramedSocket:
    """Dial the master and complete the hello handshake, with retry.

    ``netstate`` (when present) gets a crack at every attempt first —
    injected ``connect_refused`` rules raise the same
    ``ConnectionRefusedError`` a closed port would, and the policy
    rides them out exactly like the real thing.  ``counters`` tallies
    attempts/retries for the hello info the master's health table and
    ``CommTrace.record_connect_retry`` are fed from.

    The hello exchange is pickle-free in both directions (JSON control
    frames, :meth:`~repro.mpi.transport.net.FramedSocket.send_json`):
    the pickled framing only starts after the master has verified the
    token and acknowledged, so an unauthenticated peer never gets to
    feed either side a pickle.
    """
    def attempt() -> socket.socket:
        counters["attempts"] += 1
        if netstate is not None:
            netstate.on_connect_attempt(purpose)
        return socket.create_connection(addr, timeout=_HELLO_TIMEOUT)

    def on_retry(_attempt: int, _exc: BaseException) -> None:
        counters["retries"] += 1

    sock = policy.run(attempt, retry_on=(OSError,), on_retry=on_retry)
    fs = FramedSocket(sock)
    fs.send_json({"kind": "hello", "purpose": purpose, "rank": rank,
                  "token": token, "generation": generation,
                  "attempts": counters["attempts"],
                  "retries": counters["retries"]})
    try:
        reply = fs.recv_json(timeout=_HELLO_TIMEOUT)
    except (LinkClosed, LinkTimeout):
        reply = None
    if not (isinstance(reply, dict) and reply.get("kind") == "ok"):
        fs.close()
        raise CommunicatorError(
            f"socket handshake rejected for rank {rank} ({purpose})"
        )
    return fs


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _SockChannel:
    """Worker-side RPC client over the ctl link.

    Single caller (the rank's main thread), so requests never
    interleave; out-of-band abort/revoke pushes arriving while a reply
    is awaited are applied and skipped.  After an injected partition
    the control link is as unreachable as the data link: calls raise
    :class:`~repro.errors.RankKilledError`, which the rank-program
    harness reports as an injected death.
    """

    def __init__(self, fs: FramedSocket, netstate) -> None:
        self._fs = fs
        self._net = netstate
        self.state = None  # the WorkerContext, set by run_worker

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
        while True:
            try:
                header, arrays = self._fs.recv(None)
            except LinkClosed:
                self._check_dark()
                raise WorldAbortedError(
                    f"SPMD master is gone (no reply to {method})"
                ) from None
            if header[0] == "oob":
                self.state.apply_oob(header)
                continue
            break
        if header[0] == "err":
            raise decode_exception(header[1])
        _, skeleton = header
        return join_arrays(skeleton, arrays)

    def drain_oob(self) -> None:
        """Apply any queued abort/revoke pushes without blocking."""
        try:
            while self._fs.poll(0):
                header, _ = self._fs.recv(timeout=1.0)
                if header[0] == "oob":
                    self.state.apply_oob(header)
        except (LinkClosed, LinkTimeout):  # pragma: no cover - master gone
            pass

    def close(self) -> None:
        self._fs.close()


class _SockPump:
    """Owns the worker's data link: a daemon thread draining a queue.

    Mirrors the procs send pump (buffered-send semantics, completion
    tokens, single-writer data path) and adds the network robustness:
    every frame passes through the injected-fault engine, a reset
    closes-with-RST then reconnects under the retry policy and
    retransmits, a partition drops everything after shipping its
    fault record, and real send failures get one reconnect-and-resend
    before the pump declares the path broken.
    """

    def __init__(self, fs: FramedSocket, addr, token: str, rank: int,
                 policy: RetryPolicy, netstate, counters: dict) -> None:
        self._fs = fs
        self._addr = addr
        self._token = token
        self._rank = rank
        self._policy = policy
        self._net = netstate
        self._counters = counters
        self._generation = 1
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.sent = 0  # deliveries accepted; shipped with the lifecycle RPC
        self.failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="spmd-sock-pump"
        )
        self._thread.start()

    def enqueue(self, comm_id: int, dest_world: int, source: int, tag: int,
                env: Envelope) -> threading.Event:
        if self.failure is not None:
            raise CommunicatorError(
                f"socket send path failed: {self.failure}"
            )
        skeleton, arrays = split_arrays(env.payload)
        views, descrs = prepare_arrays(arrays)
        meta = (env.send_time, env.moved, env.nbytes, env.seq, env.checksum,
                encode_origin(env.origin))
        header = ("put", comm_id, dest_world, source, tag, meta, skeleton)
        token = SendToken()
        self._queue.put((header, descrs, views, token))
        self.sent += 1
        return token

    def enqueue_raw(self, header: tuple) -> None:
        """Stage a bookkeeping frame (heartbeat, ping) on the pump."""
        if self.failure is not None:
            return  # telemetry is best-effort; the rank path reports it
        self._queue.put((header, (), (), None))

    def flush(self, timeout: float | None = None) -> None:
        """Block until every frame staged so far shipped or failed.

        Run before the lifecycle report so ``failure`` is
        authoritative: without it a rank could finalize while the pump
        thread is still discovering that its frames will never ship.
        """
        token = SendToken()
        self._queue.put((None, (), (), token))
        token.wait(timeout)

    def _run(self) -> None:
        while True:
            header, descrs, views, token = self._queue.get()
            err = self.failure
            if err is None and header is not None:
                try:
                    self._ship(header, descrs, views)
                except BaseException as exc:  # noqa: BLE001 - report once
                    self.failure = err = exc
            if token is not None:
                # A frame that never shipped must not report a clean
                # stage: the waiter re-raises the error instead.
                token.error = err
                token.set()

    def _ship(self, header, descrs, views) -> None:
        net = self._net
        if net is None:
            self._send_resilient(header, descrs, views)
            return
        if net.dark:
            return  # partitioned: frames vanish into the void
        nbytes = sum(descr_nbytes(d) for d in descrs)
        action = net.on_frame(nbytes, countable=(header[0] == "put"))
        events = net.drain_events()
        if action == "dark":
            # Injection is simulated, so the victim may tell the master
            # *why* it is about to go silent (the master could never
            # learn this over a real partition) — then never speak
            # again.  The master still waits out the liveness deadline
            # before declaring the rank dead, so detection timing stays
            # honest; only the root-cause attribution is deus ex.
            try:
                self._fs.send(("netfault", events))
            except LinkClosed:  # pragma: no cover - already gone
                pass
            self._fs.close()
            return
        if action == "reset":
            # The "network" killed the data link mid-stream: abort with
            # an RST, reconnect under the retry policy, retransmit.
            self._fs.close(reset=True)
            self._reconnect()
            if events:
                self._fs.send(("netfault", events))
            self._send_resilient(header, descrs, views)
            return
        if events:
            self._fs.send(("netfault", events))
        self._send_resilient(header, descrs, views)

    def _send_resilient(self, header, descrs, views) -> None:
        try:
            self._fs.send(header, descrs, views)
        except LinkClosed:
            # Real transient failure: one reconnect under the policy,
            # then retransmit.  A second failure surfaces to the rank.
            self._reconnect()
            self._fs.send(header, descrs, views)

    def _reconnect(self) -> None:
        self._generation += 1
        self._fs = _connect_framed(
            self._addr, "data", self._rank, self._token, self._policy,
            self._net, self._counters, generation=self._generation,
        )

    def close(self) -> None:
        self._fs.close()


class _Pinger:
    """Always-on liveness pings on the data path.

    Unlike the telemetry :class:`~repro.mpi.transport.worldproxy.
    Heartbeat` (which only runs when a recorder/hub is attached), the
    socket transport needs periodic traffic unconditionally — silence
    is its failure detector.
    """

    def __init__(self, pump: _SockPump, rank: int, interval: float) -> None:
        self._pump = pump
        self._rank = rank
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"spmd-sock-ping-{rank}"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._pump.enqueue_raw(("ping", self._rank, time.time()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _run_sock_worker(cfg: WorkerConfig, rank: int, fn, args, kwargs,
                     ctl: FramedSocket, data: FramedSocket, addr,
                     token: str, netstate, knobs: dict,
                     counters: dict) -> None:
    """Worker core shared by the forked and spawned entry points."""
    channel = _SockChannel(ctl, netstate)
    pump = _SockPump(data, addr, token, rank, knobs["connect_policy"],
                     netstate, counters)
    pinger = _Pinger(pump, rank, knobs["heartbeat_interval"])
    try:
        run_worker(cfg, rank, fn, args, kwargs, channel, pump)
    finally:
        pinger.stop()
        # The lifecycle RPC only returns after the master's drain
        # barrier confirmed every delivery, so closing here loses
        # nothing; a partitioned worker closed its links already.
        channel.close()
        pump.close()


def _worker_main(addr, token: str, rank: int, fn, args, kwargs,
                 cfg: WorkerConfig, netrules, knobs: dict,
                 listener=None) -> None:
    """Entry point of a forked socket worker (default launch mode)."""
    if listener is not None:
        # fd hygiene: drop the forked copy of the master's rendezvous
        # listener so the port is released the moment the master
        # closes its own.
        try:
            listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
    netstate = NetworkFaultState(netrules, rank) if netrules else None
    if netstate is not None and not netstate.active:
        netstate = None
    counters = {"attempts": 0, "retries": 0}
    policy = knobs["connect_policy"]
    try:
        ctl = _connect_framed(addr, "ctl", rank, token, policy, netstate,
                              counters)
        data = _connect_framed(addr, "data", rank, token, policy, netstate,
                               counters)
    except BaseException:  # noqa: BLE001 - the master's connect grace
        return  # surfaces this as "never connected"
    _run_sock_worker(cfg, rank, fn, args, kwargs, ctl, data, addr, token,
                     netstate, knobs, counters)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _SockLink:
    """Master-side state of one worker's pair of connections."""

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
        self.put_cond = threading.Condition()
        self.puts_received = 0
        self.last_rx = time.monotonic()
        self.partitioned = False
        self.finished = False  # lifecycle RPC fully processed
        self.proc = None  # Process (fork) or Popen (spawn)
        # Set when a replacement superseded this link: the dead
        # incarnation's teardown (EOF, liveness expiry) must not fail
        # the rank its replacement now occupies.
        self.replaced = False

    def attach(self, purpose: str, fs: FramedSocket) -> None:
        with self.cond:
            if purpose == "ctl":
                self.ctl = fs
            elif self.data is None:
                self.data = fs
                self.data_gen += 1
                self.last_rx = time.monotonic()
            else:
                # The worker reconnected before the reader saw the old
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
                self.cond.wait(min(remaining, 0.5))
            return True

    def close(self) -> None:
        for fs in (self.ctl, self.data, self.next_data):
            if fs is not None:
                fs.close()


class SocketTransport(WorldServerMixin, Transport):
    """Ranks as processes reached over hardened framed-TCP links."""

    name = "sockets"
    shared_world = False

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 hosts=None, connect_policy: RetryPolicy | None = None,
                 heartbeat_interval: float | None = None,
                 liveness_timeout: float | None = None,
                 connect_grace: float | None = None,
                 python: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.hosts = list(hosts) if hosts else None
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
        self.connect_grace = (
            connect_grace if connect_grace is not None
            else max(30.0, 2.0 * self.liveness_timeout)
        )
        self.python = python or sys.executable
        self.net_health: dict[int, dict] = {}
        self._comm_members: dict[int, list[int]] = {}
        self._members_lock = threading.Lock()
        self._values: list = []
        self._clocks: list = []
        self._errors: list = []
        self._shutdown = threading.Event()
        self._boot_blobs: dict[int, bytes] | None = None

    # -- transport interface --------------------------------------------
    def deliver(self, context, comm_id: int, dest_world: int, source: int,
                tag: int, envelope) -> None:
        # Master-side deliveries (none in normal operation) are local.
        context.mailbox(comm_id, dest_world).put(source, tag, envelope)

    def execute(self, context, fn, args: tuple, kwargs: dict):
        nprocs = context.world_size
        self._values = [None] * nprocs
        self._clocks = [None] * nprocs
        self._errors = [None] * nprocs
        self._shutdown = threading.Event()
        with self._members_lock:
            self._comm_members = {WORLD_COMM_ID: list(range(nprocs))}
        self.net_health = {
            r: {"connect_attempts": 0, "retries": 0, "reconnects": 0,
                "heartbeat_age": None, "disconnect": None, "faults": []}
            for r in range(nprocs)
        }
        # Postmortem bundles read the transport's health table off the
        # context (see repro.obs.postmortem, "network" section).
        context.net_health = self.net_health

        token = os.urandom(16).hex()
        listener = socket.create_server((self.host, self.port))
        addr = listener.getsockname()[:2]
        links = [_SockLink(r) for r in range(nprocs)]

        context.add_abort_hook(
            lambda reason: self._broadcast(links, ("oob", "abort", reason))
        )
        context.add_revoke_hook(
            lambda threshold, reason: self._broadcast(
                links, ("oob", "revoke", threshold, reason))
        )

        cfg = WorkerConfig(context)
        netrules = (
            tuple(context.faults.plan.network)
            if context.faults is not None else ()
        )
        knobs = {"connect_policy": self.connect_policy,
                 "heartbeat_interval": self.heartbeat_interval}

        # Workers are launched while the master is still single-threaded
        # (forking a multi-threaded process can deadlock children on
        # locks held at fork time); the listener is already bound, so
        # early connects queue in the accept backlog — and the connect
        # RetryPolicy rides out a full backlog — until the accept
        # thread starts right after.
        if self.hosts is None:
            self._fork_workers(links, addr, token, fn, args, kwargs, cfg,
                               netrules, knobs, listener)
        else:
            self._spawn_workers(links, addr, token, fn, args, kwargs, cfg,
                                netrules, knobs)

        accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener, links, token, context),
            daemon=True, name="spmd-sock-accept",
        )
        accept_thread.start()

        threads: list = []
        procs: list = []
        spawn_lock = threading.Lock()

        def serve_link(link: _SockLink) -> None:
            for target, label in ((self._serve_ctl, "ctl"),
                                  (self._serve_data, "data")):
                thread = threading.Thread(
                    target=target, args=(link, context), daemon=True,
                    name=f"spmd-sock-{label}-{link.rank}",
                )
                thread.start()
                with spawn_lock:
                    threads.append(thread)

        def respawn(rank: int) -> None:
            # Elastic replacement: retire the dead incarnation's link,
            # forget its error (the replacement's lifecycle overwrites
            # the slot), and relaunch the worker through the same
            # rendezvous the original used — the accept loop indexes
            # ``links`` at hello time, so the replacement's connections
            # attach to the fresh link.
            old = links[rank]
            old.replaced = True
            old.close()  # unblocks the old serve threads via LinkClosed
            self._errors[rank] = None
            new_link = _SockLink(rank)
            links[rank] = new_link
            rcfg = WorkerConfig(context)
            rcfg.respawn_info = {
                "incarnation": context.rank_incarnations[rank],
                "crash_fired": (
                    context.faults.crash_fires(rank)
                    if context.faults is not None else None
                ),
                "revoked_below": context.revoked_below,
                "revoke_reason": context.revoke_reason,
            }
            incarnation = rcfg.respawn_info["incarnation"]
            self.net_health[rank]["reconnects"] += 1
            if self.hosts is None:
                mp_ctx = multiprocessing.get_context("fork")
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(addr, token, rank, fn, args, kwargs, rcfg,
                          netrules, knobs, listener),
                    name=f"spmd-sock-rank-{rank}-i{incarnation}",
                    daemon=True,
                )
                proc.start()
            else:
                if self._boot_blobs is not None:
                    self._boot_blobs[rank] = self._boot_blob(
                        rank, fn, args, kwargs, rcfg, netrules, knobs)
                env = dict(os.environ)
                env[TOKEN_ENV_VAR] = token
                proc = subprocess.Popen(
                    [self.python, "-m", "repro.mpi.transport.sockworker",
                     "--addr", f"{addr[0]}:{addr[1]}",
                     "--rank", str(rank)],
                    stdin=subprocess.DEVNULL,
                    env=env,
                )
            new_link.proc = proc
            with spawn_lock:
                procs.append(proc)

            def boot() -> None:
                ok = new_link.wait_ready(
                    time.monotonic() + self.connect_grace)
                if ok:
                    serve_link(new_link)
                else:
                    self._declare_lost(
                        new_link, context,
                        f"replacement never connected within "
                        f"{self.connect_grace:.0f}s",
                    )

            threading.Thread(
                target=boot, daemon=True,
                name=f"spmd-sock-boot-{rank}-i{incarnation}",
            ).start()

        # The initial incarnations are collected before the respawner
        # is registered, so every process the run ever launched —
        # original or replacement — lands in ``procs`` exactly once.
        procs.extend(link.proc for link in links if link.proc is not None)
        context.set_respawner(respawn)

        # Rendezvous: every worker must raise both links within the
        # grace window (injected connect refusals burn into it).
        deadline = time.monotonic() + self.connect_grace
        for link in list(links):
            if not link.wait_ready(deadline):
                self._declare_lost(
                    link, context,
                    f"never connected within {self.connect_grace:.0f}s",
                )
                continue
            serve_link(link)

        # Join by index: a replace rendezvous may append replacement
        # workers (and their serve threads) while earlier ones are
        # still being joined; every incarnation must be reaped.
        i = 0
        while True:
            with spawn_lock:
                if i >= len(procs):
                    break
                proc = procs[i]
            i += 1
            if hasattr(proc, "join"):
                proc.join()
            else:  # Popen
                proc.wait()
        self._shutdown.set()
        i = 0
        while True:
            with spawn_lock:
                if i >= len(threads):
                    break
                thread = threads[i]
            i += 1
            thread.join(timeout=10.0)
        accept_thread.join(timeout=5.0)
        try:
            listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        now = time.monotonic()
        for link in links:
            self.net_health[link.rank]["heartbeat_age"] = round(
                now - link.last_rx, 3)
            link.close()
        self._boot_blobs = None
        return self._values, self._clocks, self._errors

    # -- worker launch ---------------------------------------------------
    def _fork_workers(self, links, addr, token, fn, args, kwargs, cfg,
                      netrules, knobs, listener) -> None:
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise CommunicatorError(
                "backend='sockets' forks its workers by default (POSIX "
                "only); pass hosts=[...] to spawn them instead"
            ) from None
        for link in links:
            # The fork start method passes args by reference, so the
            # child gets the listener object to close its inherited fd
            # copy — otherwise every worker would keep the rendezvous
            # port bound after the master closes it.
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(addr, token, link.rank, fn, args, kwargs, cfg,
                      netrules, knobs, listener),
                name=f"spmd-sock-rank-{link.rank}",
                daemon=True,
            )
            proc.start()
            link.proc = proc

    def _spawn_workers(self, links, addr, token, fn, args, kwargs, cfg,
                       netrules, knobs) -> None:
        self._boot_blobs = {
            link.rank: self._boot_blob(link.rank, fn, args, kwargs, cfg,
                                       netrules, knobs)
            for link in links
        }
        host, port = addr
        env = dict(os.environ)
        env[TOKEN_ENV_VAR] = token
        for link in links:
            # Single-host loopback launch; the hosts entries label the
            # layout (and are recorded in net_health).  Reaching a real
            # remote host means running this exact command there — the
            # handshake only needs TCP to (host, port) plus the token
            # in the environment (argv would leak it via ps/procfs).
            label = self.hosts[link.rank % len(self.hosts)]
            self.net_health[link.rank]["host"] = label
            link.proc = subprocess.Popen(
                [self.python, "-m", "repro.mpi.transport.sockworker",
                 "--addr", f"{host}:{port}", "--rank", str(link.rank)],
                stdin=subprocess.DEVNULL,
                env=env,
            )

    @staticmethod
    def _demote_main(fn):
        """Re-point a ``__main__``-defined program at its importable home.

        ``python -m some.module`` runs the module *as* ``__main__``, so
        a program function defined there would pickle by reference as
        ``__main__.<name>`` — unresolvable inside the spawned worker,
        whose ``__main__`` is the sockworker entry point.  When
        ``__main__`` has an import spec (the ``-m`` case), the same
        function exists under its real module name; ship that one.
        """
        if getattr(fn, "__module__", None) != "__main__":
            return fn
        spec = getattr(sys.modules.get("__main__"), "__spec__", None)
        name = getattr(spec, "name", None)
        if name:
            import importlib

            try:
                twin = getattr(importlib.import_module(name),
                               fn.__qualname__, None)
            except Exception:
                twin = None
            if callable(twin):
                return twin
        raise CommunicatorError(
            f"hosts= workers cannot import {fn.__qualname__!r} from "
            f"__main__; move the program function into an importable "
            f"module"
        )

    def _boot_blob(self, rank: int, fn, args, kwargs, cfg, netrules,
                   knobs) -> bytes:
        fn = self._demote_main(fn)
        state = {slot: getattr(cfg, slot) for slot in WorkerConfig.__slots__}
        # Observability objects are worker-local copies; ones that
        # cannot cross the spawn boundary degrade to None (the
        # master-side halves — mailbox protocol, postmortems — still
        # work, the worker just ships no shards for them).
        for opt in ("comm_trace", "tracer", "recorder"):
            try:
                pickle.dumps(state[opt], protocol=4)
            except Exception:
                state[opt] = None
        try:
            return pickle.dumps(
                (fn, args, kwargs, state, netrules, knobs), protocol=4
            )
        except Exception as exc:
            raise CommunicatorError(
                f"hosts= workers boot over the wire: the program, its "
                f"arguments, and the fault/resilience configuration must "
                f"be picklable ({type(exc).__name__}: {exc}); use a "
                f"module-level program function"
            ) from None

    # -- rendezvous/accept loop ------------------------------------------
    def _accept_loop(self, listener, links, token: str, context) -> None:
        listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - listener closed
                return
            fs = FramedSocket(sock)
            # The hello is a bounded JSON frame — nothing from this
            # connection is unpickled (or even trusted as a tuple)
            # until the token has passed a constant-time comparison.
            # A stray or hostile client gets its socket closed, never
            # a pickle.loads of its bytes.
            try:
                hello = fs.recv_json(timeout=_HELLO_TIMEOUT)
            except (LinkClosed, LinkTimeout):
                fs.close()
                continue
            peer_token = hello.get("token")
            if not (hello.get("kind") == "hello"
                    and isinstance(peer_token, str)
                    and hmac.compare_digest(peer_token, token)):
                fs.close()  # wrong token / stray connection: reject
                continue
            purpose = hello.get("purpose")
            rank = hello.get("rank")
            if not (isinstance(rank, int) and 0 <= rank < len(links)
                    and purpose in ("ctl", "data")):
                fs.close()
                continue
            info = {key: hello.get(key, 0)
                    for key in ("generation", "attempts", "retries")}
            link = links[rank]
            self._note_hello(context, link, purpose, info)
            try:
                fs.send_json({"kind": "ok", "world": len(links)})
                if purpose == "ctl" and self._boot_blobs is not None:
                    fs.send(("boot", self._boot_blobs[rank]))
            except LinkClosed:
                fs.close()
                continue
            link.attach(purpose, fs)

    def _note_hello(self, context, link: _SockLink, purpose: str,
                    info: dict) -> None:
        """Fold a hello's connect bookkeeping into health + comm trace."""
        h = self.net_health[link.rank]
        h["connect_attempts"] = max(h["connect_attempts"],
                                    int(info.get("attempts", 0)))
        new_retries = int(info.get("retries", 0)) - h["retries"]
        if new_retries > 0:
            h["retries"] += new_retries
            trace = context.comm_trace
            if trace is not None:
                for _ in range(new_retries):
                    trace.record_connect_retry(link.rank)
        if purpose == "data" and int(info.get("generation", 1)) > 1:
            h["reconnects"] += 1
        recorder = getattr(context, "recorder", None)
        if recorder is not None and int(info.get("generation", 1)) > 1:
            # Safe to write master-side: reconnect bookkeeping is rare
            # and the recorder merges by max sequence either way; the
            # authoritative per-rank op stream still comes from the
            # worker's shipped deltas.
            h.setdefault("reconnect_log", []).append(round(time.time(), 3))

    # -- out-of-band push ------------------------------------------------
    @staticmethod
    def _broadcast(links, header: tuple) -> None:
        for link in links:
            fs = link.ctl
            if fs is None:
                continue
            with link.send_lock:
                try:
                    fs.send(header)
                except LinkClosed:
                    pass  # worker already gone

    # -- master service threads -----------------------------------------
    def _reply(self, link: _SockLink, value) -> None:
        skeleton, arrays = split_arrays(value)
        views, descrs = prepare_arrays(arrays)
        with link.send_lock:
            link.ctl.send(("ok", skeleton), descrs, views)

    def _reply_err(self, link: _SockLink, exc: BaseException) -> None:
        with link.send_lock:
            link.ctl.send(("err", encode_exception(exc)))

    def _serve_ctl(self, link: _SockLink, context) -> None:
        """Serve one worker's blocking RPCs until it disconnects."""
        fs = link.ctl
        while True:
            try:
                header, arrays = fs.recv(None)
            except LinkClosed:
                return
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
                    return
                continue
            try:
                self._reply(link, value)
            except LinkClosed:
                return
            if method in ("finalize", "rank_killed", "rank_error"):
                link.finished = True
                return

    def _serve_data(self, link: _SockLink, context) -> None:
        """Drain one worker's data frames; silence is its death certificate.

        The recv loop wakes every ``_DATA_TICK`` seconds to check the
        liveness deadline, so a partitioned or frozen worker surfaces
        as a failed rank within ``liveness_timeout`` — never a hang.
        An EOF (reset or process death) retires the socket but starts
        no new clock: either a reconnect replaces it or the liveness
        deadline (running since the last received frame) expires.
        """
        while True:
            if link.finished or link.replaced or self._shutdown.is_set():
                return
            with link.cond:
                fs = link.data
                gen = link.data_gen
            if fs is None:
                if self._liveness_expired(link):
                    self._declare_lost(link, context,
                                       "data link lost and not re-established")
                    return
                with link.cond:
                    link.cond.wait(_DATA_TICK)
                continue
            try:
                header, arrays = fs.recv(timeout=_DATA_TICK)
            except LinkTimeout:
                if link.next_data is not None:
                    # Nothing left on a socket the worker has abandoned
                    # (a black-holed link never delivers its EOF).
                    link.retire_data(gen)
                    continue
                if self._liveness_expired(link):
                    self._declare_lost(
                        link, context,
                        f"liveness deadline exceeded "
                        f"({self.liveness_timeout:.1f}s of silence)",
                    )
                    return
                continue
            except LinkClosed:
                link.retire_data(gen)
                continue
            link.last_rx = time.monotonic()
            kind = header[0]
            if kind == "put":
                _, comm_id, dest_world, source, tag, meta, skeleton = header
                payload = join_arrays(skeleton, arrays)
                send_time, moved, nbytes, seq, checksum, origin = meta
                env = Envelope(payload=payload, send_time=send_time,
                               moved=moved, nbytes=nbytes,
                               origin=decode_origin(origin), seq=seq,
                               checksum=checksum)
                context.mailbox(comm_id, dest_world).put(source, tag, env)
                with link.put_cond:
                    link.puts_received += 1
                    link.put_cond.notify_all()
            elif kind == "hb":
                self._ingest_heartbeat(context, header[1], header[2],
                                       header[3])
            elif kind == "netfault":
                self._absorb_netfault(context, link, header[1])
            # "ping" frames carry nothing; stamping last_rx was the point.

    def _liveness_expired(self, link: _SockLink) -> bool:
        return time.monotonic() - link.last_rx > self.liveness_timeout

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
        if link.replaced:
            # The rank status now describes the replacement; this link
            # belongs to an incarnation already recovered from.
            return
        if context.rank_status(rank) != "running":
            return
        if link.partitioned and context.faults is not None:
            err: CommunicatorError = RankKilledError(
                f"injected network partition: rank {rank} went silent "
                f"({why}; last frame {age:.2f}s ago)"
            )
        else:
            err = RankFailedError(
                f"rank {rank} socket worker lost: {why} "
                f"(last frame {age:.2f}s ago)"
            )
        if self._errors[rank] is None:
            self._errors[rank] = err
        recorder = getattr(context, "recorder", None)
        if recorder is not None:
            # The worker can ship no more deltas (its link is gone), so
            # a master-side record cannot collide with absorb_events.
            try:
                recorder.record(rank, "fault", name="net:lost", reason=why)
            except Exception:  # pragma: no cover - telemetry best-effort
                pass
        context.mark_failed(rank)
