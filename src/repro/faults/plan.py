"""Declarative, seeded fault plans for the simulated SPMD runtime.

A :class:`FaultPlan` describes *what goes wrong* in a run — rank
crashes, message-level faults (drop/duplicate/corrupt), and
transient numerical corruption inside named linalg kernels — without
saying anything about *when the code runs*.  The plan is installed via
``run_spmd(faults=plan)``; the :class:`~repro.faults.FaultInjector`
built from it draws every probabilistic decision from per-rank
``numpy`` generator streams keyed by ``(seed, rank)``, so the same plan
and seed reproduce the identical fault schedule on every replay (the
runtime's message schedules are deterministic per rank, which makes the
draw sequence deterministic too).

``run_spmd(resilience=True)`` is the other half of the contract: the
tolerance (sequence numbers, checksums, a bounded retry) the runtime
uses to survive what the plan injects.  Keeping them separate means a
plan can be run *without* tolerance to demonstrate the failure mode,
then *with* it to demonstrate the recovery — same seed, same faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigurationError

__all__ = [
    "CrashRule",
    "MessageFaultRule",
    "KernelFaultRule",
    "NetworkFaultRule",
    "FaultPlan",
    "FaultEvent",
    "MESSAGE_FAULT_KINDS",
    "KERNEL_FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
]

MESSAGE_FAULT_KINDS = ("drop", "duplicate", "corrupt")
KERNEL_FAULT_KINDS = ("nan", "inf")
NETWORK_FAULT_KINDS = ("connect_refused", "reset", "partition", "slow")


@dataclass(frozen=True)
class CrashRule:
    """Kill one rank after its ``at_op``-th communicator operation.

    ``at_op`` counts the rank's own point-to-point sends and receives
    (including those inside collectives), so "mid-mode" crashes are
    expressed as an operation count, not wall time — deterministic by
    construction.  The victim raises
    :class:`~repro.errors.RankKilledError` from inside the operation.
    A rule fires at most once: recovery shrinks the world, so the dead
    rank never runs again.
    """

    rank: int
    at_op: int

    def validate(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"crash rule rank must be >= 0, got {self.rank}")
        if self.at_op < 1:
            raise ConfigurationError(f"crash rule at_op must be >= 1, got {self.at_op}")


@dataclass(frozen=True)
class MessageFaultRule:
    """Probabilistic per-message fault on the (simulated) wire.

    Each outgoing message that matches the predicate draws one uniform
    variate from the *sender's* stream; the rule fires when the draw is
    below ``prob``.  The first matching rule that fires wins.

    Predicate fields (``None`` matches everything):

    ``tags``
        Exact tags, or the strings ``"user"`` (tag >= 0) /
        ``"collectives"`` (the runtime's negative internal tag space).
    ``min_bytes`` / ``max_bytes``
        Inclusive bounds on the modeled payload size.
    ``senders``
        World ranks whose outgoing messages are eligible.

    Kinds: ``"drop"`` (message lost; retransmitted under
    resilience), ``"duplicate"`` (delivered twice; deduplicated by
    sequence number under resilience), ``"corrupt"`` (one byte of an
    ndarray payload is bit-flipped in a *copy*; detected by checksum
    and retransmitted under resilience).
    """

    kind: str
    prob: float
    tags: object = None
    min_bytes: int = 0
    max_bytes: int | None = None
    senders: Sequence[int] | None = None

    def validate(self) -> None:
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise ConfigurationError(
                f"message fault kind must be one of {MESSAGE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigurationError(f"prob must be in [0, 1], got {self.prob}")
        if isinstance(self.tags, str) and self.tags not in ("user", "collectives"):
            raise ConfigurationError(
                f"tags must be 'user', 'collectives', or a tag collection, "
                f"got {self.tags!r}"
            )

    def matches(self, sender: int, tag: int, nbytes: int) -> bool:
        if self.senders is not None and sender not in self.senders:
            return False
        if self.tags is not None:
            if self.tags == "user":
                if tag < 0:
                    return False
            elif self.tags == "collectives":
                if tag >= 0:
                    return False
            elif tag not in self.tags:
                return False
        if nbytes < self.min_bytes:
            return False
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        return True


@dataclass(frozen=True)
class KernelFaultRule:
    """Transient numerical corruption in one named linalg kernel call.

    ``kernel`` names the hook point (``"gesvd"``, ``"eigh"``,
    ``"gelq"``, ``"geqr"``); ``call_index`` is the 0-based per-rank call
    count at which the fault fires — count-based, not probabilistic, so
    replays corrupt the same call.  ``ranks=None`` (the default) fires
    on *every* rank at that call index, matching the replicated-SVD
    execution model where each rank computes the same small
    decomposition redundantly — corrupting all copies keeps the
    replicated factors bitwise identical, so the fault tests the
    numerical guards rather than manufacturing divergence the sanitizer
    would (correctly) flag.
    """

    kernel: str
    call_index: int
    kind: str = "nan"
    ranks: Sequence[int] | None = None

    def validate(self) -> None:
        if self.kind not in KERNEL_FAULT_KINDS:
            raise ConfigurationError(
                f"kernel fault kind must be one of {KERNEL_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.call_index < 0:
            raise ConfigurationError(
                f"call_index must be >= 0, got {self.call_index}"
            )


@dataclass(frozen=True)
class NetworkFaultRule:
    """Deterministic fault at the *socket layer* of a networked backend.

    These rules are injected by the transport's connection machinery
    (``backend="sockets"``), not the communicator, and they are
    count-based rather than probabilistic: connection attempts and
    outgoing data frames per rank are deterministic sequences, so a
    trigger expressed as "the N-th attempt/frame" replays identically
    with no variate draws at all.  In-process backends (threads, procs)
    have no sockets and ignore them.

    Kinds:

    ``"connect_refused"``
        The rank's first ``attempts`` connection attempts to the master
        fail with ``ConnectionRefusedError``; the transport's
        :class:`~repro.mpi.transport.net.RetryPolicy` must ride them
        out.  Models a master that is still binding, or a transient
        SYN drop.
    ``"reset"``
        The rank's data link is hard-closed (RST) right before its
        ``after_frames``-th outgoing frame; the transport reconnects
        with backoff and retransmits.  Models a mid-stream TCP reset.
    ``"partition"``
        The rank's links go silently dark before its
        ``after_frames``-th outgoing frame — no FIN, no RST, no
        heartbeats; the master's liveness deadline must detect it and
        fail the rank so survivors can revoke/shrink.  ``ranks`` names
        the set cut off from the rest of the world.
    ``"slow"``
        Every outgoing frame pays ``latency_seconds`` plus
        ``nbytes / bytes_per_second`` of real wall latency — link
        shaping for overhead and timeout testing.

    ``ranks=None`` applies the rule to every rank.
    """

    kind: str
    ranks: Sequence[int] | None = None
    attempts: int = 1
    after_frames: int = 1
    latency_seconds: float = 0.0
    bytes_per_second: float | None = None

    def validate(self) -> None:
        if self.kind not in NETWORK_FAULT_KINDS:
            raise ConfigurationError(
                f"network fault kind must be one of {NETWORK_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "connect_refused" and self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1, got {self.attempts}"
            )
        if self.kind in ("reset", "partition") and self.after_frames < 1:
            raise ConfigurationError(
                f"after_frames must be >= 1, got {self.after_frames}"
            )
        if self.kind == "slow":
            if self.latency_seconds < 0:
                raise ConfigurationError("latency_seconds must be >= 0")
            if self.bytes_per_second is not None and self.bytes_per_second <= 0:
                raise ConfigurationError("bytes_per_second must be positive")
            if self.latency_seconds == 0 and self.bytes_per_second is None:
                raise ConfigurationError(
                    "a 'slow' rule needs latency_seconds and/or "
                    "bytes_per_second — with neither it shapes nothing"
                )

    def applies_to(self, rank: int) -> bool:
        return self.ranks is None or rank in self.ranks


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults for one SPMD run.

    An empty plan is valid and useful: the injector still counts
    operations per rank (``FaultInjector.ops_per_rank``), which is how
    the chaos driver calibrates "mid-run" crash points.
    """

    seed: int = 0
    crashes: tuple[CrashRule, ...] = ()
    messages: tuple[MessageFaultRule, ...] = ()
    kernels: tuple[KernelFaultRule, ...] = ()
    network: tuple[NetworkFaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "network", tuple(self.network))
        for rule in (*self.crashes, *self.messages, *self.kernels,
                     *self.network):
            rule.validate()
        by_rank = [c.rank for c in self.crashes]
        if len(by_rank) != len(set(by_rank)):
            raise ConfigurationError("at most one crash rule per rank")


# Default event-trace capacity per run; a fuse against pathological
# plans (e.g. prob=1 drops with a large retry budget) ballooning memory.
DEFAULT_TRACE_LIMIT = 100_000


@dataclass
class FaultEvent:
    """One injected fault occurrence (for replay verification)."""

    rank: int
    op_index: int
    kind: str  # "crash" | message kind | "kernel:<name>"
    detail: tuple = field(default_factory=tuple)

    def as_tuple(self) -> tuple:
        return (self.rank, self.op_index, self.kind, tuple(self.detail))
