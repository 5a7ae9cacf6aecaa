"""Counters, gauges, and histograms for the observability layer.

A :class:`MetricsRegistry` is a thread-safe, get-or-create namespace of
three instrument kinds:

* :class:`Counter` — monotone accumulator (messages sent, flops);
* :class:`Gauge` — last-write-wins sample (chosen rank, peak bytes);
* :class:`Histogram` — bucketed distribution (per-message sizes, keyed
  per collective algorithm by the communicator hooks).

Every :class:`~repro.obs.tracer.Tracer` owns one registry
(``tracer.metrics``); the tracer feeds per-algorithm message-size
histograms into it from the communicator's ``dispatch`` events, and the
existing tallies —
:class:`~repro.mpi.tracing.CommTrace` and
:class:`~repro.instrument.FlopCounter` — are folded in after a run with
:func:`ingest_comm_trace` / :func:`ingest_flop_counter`, so one registry
snapshot describes a whole execution.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "ingest_comm_trace",
    "ingest_flop_counter",
]

# Message-size buckets (bytes): 64 B .. 32 MiB, factor-of-8 spaced —
# wide enough to separate the latency- and bandwidth-bound regimes the
# collective dispatch crossovers care about.
DEFAULT_BYTE_BUCKETS = (64, 512, 4096, 32768, 262144, 2097152, 33554432)


class Counter:
    """Monotone accumulator."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-write-wins sample."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self):
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket histogram with count/sum/max tracking.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_max", "_lock")

    def __init__(self, name: str, buckets=DEFAULT_BYTE_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def bucket_counts(self) -> dict[str, int]:
        """Counts keyed by upper bound ('le=4096', ..., 'le=+Inf')."""
        with self._lock:
            out = {f"le={int(b) if b.is_integer() else b}": c
                   for b, c in zip(self.buckets, self._counts)}
            out["le=+Inf"] = self._counts[-1]
        return out

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "max": self.max,
            "buckets": self.bucket_counts(),
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict (possibly a diff) into this one."""
        if not snap.get("count"):
            return
        buckets = snap.get("buckets", {})
        with self._lock:
            for i, b in enumerate(self.buckets):
                label = f"le={int(b) if b.is_integer() else b}"
                self._counts[i] += int(buckets.get(label, 0))
            self._counts[-1] += int(buckets.get("le=+Inf", 0))
            self._count += int(snap["count"])
            self._sum += float(snap["sum"])
            if float(snap.get("max", float("-inf"))) > self._max:
                self._max = float(snap["max"])


class MetricsRegistry:
    """Thread-safe get-or-create namespace of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict = {}

    def _get_or_create(self, name: str, factory, kind):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
            elif not isinstance(inst, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {kind.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, buckets=DEFAULT_BYTE_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets), Histogram
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name`` (None if absent)."""
        with self._lock:
            return self._instruments.get(name)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in sorted(items)}

    def shard(self, rank: int, since: dict | None):
        """Observer protocol: what changed since the snapshot ``since``.

        Counters and histogram counts/sums subtract; gauges ship their
        current value only when it changed; a histogram's ``max`` cannot
        be subtracted and ships as-is (merging keeps the running max).
        Forked workers report only their post-fork activity this way.
        Returns ``(delta, snapshot)``.
        """
        now = self.to_dict()
        base = since or {}
        out = {}
        for name, snap in now.items():
            prev = base.get(name)
            if prev is None or prev.get("type") != snap["type"]:
                out[name] = snap
                continue
            kind = snap["type"]
            if kind == "counter":
                delta = snap["value"] - prev["value"]
                if delta:
                    out[name] = {"type": "counter", "value": delta}
            elif kind == "gauge":
                if snap["value"] != prev["value"]:
                    out[name] = snap
            else:
                dcount = snap["count"] - prev["count"]
                if dcount:
                    dsum = snap["sum"] - prev["sum"]
                    out[name] = {
                        "type": "histogram",
                        "count": dcount,
                        "sum": dsum,
                        "mean": dsum / dcount,
                        "max": snap["max"],
                        "buckets": {
                            k: snap["buckets"].get(k, 0)
                            - prev["buckets"].get(k, 0)
                            for k in snap["buckets"]
                        },
                    }
        return out, now

    def absorb(self, rank: int, delta: dict) -> None:
        """Observer protocol: fold a :meth:`shard` delta (or a whole
        :meth:`to_dict`) in.

        Counters add, gauges last-write-win, histograms merge bucket by
        bucket (bounds are reconstructed from the ``le=`` labels when
        the instrument does not exist yet).
        """
        for name, snap in delta.items():
            kind = snap.get("type")
            if kind == "counter":
                self.counter(name).inc(snap["value"])
            elif kind == "gauge":
                self.gauge(name).set(snap["value"])
            elif kind == "histogram":
                bounds = [
                    float(key[3:])
                    for key in snap.get("buckets", {})
                    if key.startswith("le=") and key != "le=+Inf"
                ]
                hist = self.histogram(name, bounds or DEFAULT_BYTE_BUCKETS)
                hist.merge_snapshot(snap)

    def as_table(self, *, title: str | None = None) -> str:
        """Plain-text summary table (one row per instrument)."""
        from ..util.tables import format_table

        rows = []
        for name, snap in self.to_dict().items():
            if snap["type"] == "histogram":
                rows.append([name, snap["type"], snap["count"],
                             snap["sum"], snap["mean"], snap["max"]])
            else:
                rows.append([name, snap["type"], "", snap["value"], "", ""])
        return format_table(
            ["metric", "type", "count", "value/sum", "mean", "max"],
            rows, title=title,
        )


# ----------------------------------------------------------------------
# Bridges from the existing tallies
# ----------------------------------------------------------------------
def ingest_comm_trace(registry: MetricsRegistry, trace) -> None:
    """Fold a :class:`~repro.mpi.tracing.CommTrace` into counters.

    Creates, per context label, the four send-side counters plus the
    receive-side pair (when the trace recorded receives), summed over
    ranks — the registry view is the world aggregate, while the trace
    itself keeps the per-rank resolution.
    """
    for ctx in sorted(trace.contexts()):
        registry.counter(f"comm.sent_messages[{ctx}]").inc(
            trace.total_messages(ctx))
        registry.counter(f"comm.sent_bytes[{ctx}]").inc(
            trace.total_bytes(ctx))
        registry.counter(f"comm.copied_bytes[{ctx}]").inc(
            trace.total_copied_bytes(ctx))
        registry.counter(f"comm.moved_bytes[{ctx}]").inc(
            trace.total_moved_bytes(ctx))
        recv_msgs = trace.total_recv_messages(ctx)
        if recv_msgs:
            registry.counter(f"comm.recv_messages[{ctx}]").inc(recv_msgs)
            registry.counter(f"comm.recv_bytes[{ctx}]").inc(
                trace.total_recv_bytes(ctx))
    # Reliability counters (run-wide, populated under fault injection).
    for name, total in (
        ("comm.dropped_messages", trace.dropped_messages()),
        ("comm.retried_messages", trace.retried_messages()),
        ("comm.checksum_failures", trace.checksum_failures()),
        ("comm.connect_retries", trace.connect_retries()),
    ):
        if total:
            registry.counter(name).inc(total)


def ingest_flop_counter(registry: MetricsRegistry, flops) -> None:
    """Fold a :class:`~repro.instrument.FlopCounter` into counters."""
    registry.counter("flops.total").inc(flops.total)
    for phase, count in sorted(flops.by_phase.items()):
        registry.counter(f"flops[{phase}]").inc(count)
