"""Unit tests for the flight recorder and postmortems."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.faults import CrashRule, FaultPlan
from repro.mpi import run_spmd
from repro.obs import (
    FlightRecorder,
    build_postmortem,
    load_postmortem,
    render_postmortem,
    write_postmortem,
)
from repro.obs import trace_span
from repro.obs.recorder import (
    activate,
    current_recorder,
    deactivate,
    event_dict,
    record_event,
)


# ----------------------------------------------------------------------
# Ring buffer mechanics
# ----------------------------------------------------------------------
class TestRing:
    def test_bounded_eviction(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(0, "send", peer=i)
        events = rec.events(0)
        assert len(events) == 4
        assert [e[0] for e in events] == [6, 7, 8, 9]  # monotone seqs survive
        assert rec.recorded(0) == 10
        assert rec.evicted(0) == 6

    def test_last_events_and_cursor(self):
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.record(1, "recv", peer=i)
        assert [e[0] for e in rec.last_events(1, 2)] == [3, 4]
        assert rec.cursor(1) == 5
        assert [e[0] for e in rec.events_since(1, 3)] == [3, 4]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_absorb_events_dedupes_by_seq(self):
        """Heartbeat deltas and the finalize shard overlap; absorbing
        the same events twice must not duplicate them."""
        src = FlightRecorder(capacity=16)
        for i in range(6):
            src.record(2, "send", peer=i)
        dst = FlightRecorder(capacity=16)
        batch = src.events_since(2, 0)
        dst.absorb_events(2, batch[:4])
        dst.absorb_events(2, batch)  # overlaps the first four
        assert [e[0] for e in dst.events(2)] == [0, 1, 2, 3, 4, 5]
        assert dst.recorded(2) == 6

    def test_clear(self):
        rec = FlightRecorder(capacity=4)
        rec.record(0, "send")
        rec.clear()
        assert rec.ranks() == []
        assert rec.events(0) == []


# ----------------------------------------------------------------------
# Span stacks: open spans vs the error-unwind fallback
# ----------------------------------------------------------------------
class TestSpanStacks:
    def test_open_stack_tracks_nesting(self):
        rec = FlightRecorder()
        rec.record(0, "span.open", "outer")
        rec.record(0, "span.open", "inner")
        assert rec.open_spans(0) == ["outer", "inner"]
        assert rec.span_stack(0) == ["outer", "inner"]
        rec.record(0, "span.close", "inner")
        assert rec.open_spans(0) == ["outer"]

    def test_error_unwind_preserved_after_close(self):
        """When the exception has already unwound every span, the stack
        at death is reconstructed from the error-closed spans."""
        rec = FlightRecorder()
        rec.record(0, "span.open", "outer")
        rec.record(0, "span.open", "inner")
        rec.record(0, "span.close", "inner", error="RankKilledError")
        rec.record(0, "span.close", "outer", error="RankKilledError")
        assert rec.open_spans(0) == []
        assert rec.error_unwind(0) == ["inner", "outer"]
        assert rec.span_stack(0) == ["outer", "inner"]  # innermost last

    def test_clean_close_clears_unwind(self):
        rec = FlightRecorder()
        rec.record(0, "span.open", "a")
        rec.record(0, "span.close", "a", error="ValueError")
        rec.record(0, "span.open", "b")
        rec.record(0, "span.close", "b")  # clean close: not dying
        assert rec.error_unwind(0) == []
        assert rec.span_stack(0) == []


# ----------------------------------------------------------------------
# Thread-local activation + stand-in spans
# ----------------------------------------------------------------------
class TestActivation:
    def test_record_event_routes_to_active_recorder(self):
        rec = FlightRecorder()
        activate(rec, 3)
        try:
            assert current_recorder() is rec
            record_event("fault", "crash", op_index=2)
        finally:
            deactivate()
        assert current_recorder() is None
        (event,) = rec.events(3)
        assert event[2] == "fault" and event[3] == "crash"
        assert event_dict(event)["detail"] == {"op_index": 2}

    def test_recorder_span_records_open_close(self):
        """A recorder-only binding: trace_span's one span class stands
        in without a tracer."""
        rec = FlightRecorder()
        activate(rec, 1)
        try:
            with trace_span("kernel", mode=0) as span:
                span.set(rows=8)
                span.add_bytes(64, 64)
        finally:
            deactivate()
        kinds = [(e[2], e[3]) for e in rec.events(1)]
        assert kinds == [("span.open", "kernel"), ("span.close", "kernel")]
        close_detail = event_dict(rec.events(1)[-1])["detail"]
        assert close_detail["mode"] == 0 and close_detail["rows"] == 8
        assert close_detail["bytes_copied"] == 64
        assert "duration_s" in close_detail

    def test_recorder_span_records_error(self):
        rec = FlightRecorder()
        activate(rec, 0)
        try:
            with pytest.raises(RuntimeError):
                with trace_span("kernel"):
                    raise RuntimeError("boom")
        finally:
            deactivate()
        close_detail = event_dict(rec.events(0)[-1])["detail"]
        assert close_detail["error"] == "RuntimeError"
        assert rec.error_unwind(0) == ["kernel"]


# ----------------------------------------------------------------------
# Postmortem bundles end to end (threads backend; conformance tests
# cover procs)
# ----------------------------------------------------------------------
def _crash_world(tmp_path):
    rec = FlightRecorder(postmortem_dir=str(tmp_path))

    def prog(comm):
        if comm.rank == 1:
            comm.send(np.ones(4), 0, tag=5)
        return comm.recv((comm.rank + 1) % comm.size, tag=9)

    plan = FaultPlan(seed=7, crashes=(CrashRule(rank=0, at_op=1),))
    with pytest.raises(RankFailedError):
        run_spmd(prog, 2, faults=plan, recorder=rec, recv_timeout=15)
    return rec


class _IdleWorld:
    """The context surface ``build_postmortem`` reads, for a world whose
    ranks have all finalized and which carries no recorder."""

    abort_reason = None
    recorder = None
    last_deadlock = None
    faults = None
    transport = None

    class abort_event:
        @staticmethod
        def is_set():
            return False

    def __init__(self, world_size):
        self.world_size = world_size

    @staticmethod
    def failed_ranks():
        return []

    @staticmethod
    def rank_status(rank):
        return "finalized"

    @staticmethod
    def mailboxes():
        return []


class TestPostmortem:
    def test_bundle_is_json_clean(self, tmp_path):
        rec = _crash_world(tmp_path)
        bundle = rec.last_postmortem
        json.dumps(bundle)  # strictly JSON-serializable
        assert bundle["schema"] == "repro-postmortem/1"
        assert bundle["world_size"] == 2
        assert bundle["error"]["type"] == "RankFailedError"
        assert bundle["rank_errors"]  # per-rank error table present

    def test_write_load_roundtrip_and_schema_guard(self, tmp_path):
        rec = _crash_world(tmp_path)
        path = rec.last_postmortem_path
        assert path is not None and path.startswith(str(tmp_path))
        assert load_postmortem(path) == rec.last_postmortem
        bad = tmp_path / "not-a-bundle.json"
        bad.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError, match="not a postmortem bundle"):
            load_postmortem(str(bad))

    def test_render_mentions_key_facts(self, tmp_path):
        rec = _crash_world(tmp_path)
        text = render_postmortem(rec.last_postmortem, events=5)
        assert "ROOT CAUSE" in text
        assert "in-flight messages: 1" in text
        assert "tag=5" in text
        assert "last 3 events" in text or "last 5 events" in text

    def test_heartbeat_age_is_the_newest_event(self, tmp_path):
        """Each rank's age is the time since its newest recorded event,
        and None for a rank that recorded nothing — with no other
        object attached to the world."""
        rec = _crash_world(tmp_path)
        bundle = rec.last_postmortem
        for rank in ("0", "1"):
            entry = bundle["ranks"][rank]
            assert entry["events_recorded"] > 0
            newest = rec.last_event_ts(int(rank))
            assert entry["heartbeat_age_s"] == pytest.approx(
                bundle["generated_unix"] - newest, abs=0.5)

        rec = FlightRecorder()
        rec.record(0, "send")
        ranks = build_postmortem(_IdleWorld(2), recorder=rec)["ranks"]
        assert ranks["0"]["heartbeat_age_s"] >= 0.0
        assert ranks["1"]["heartbeat_age_s"] is None

    def test_write_postmortem_explicit(self, tmp_path):
        bundle = {"schema": "repro-postmortem/1", "ranks": {}}
        path = write_postmortem(bundle, str(tmp_path), filename="x.json")
        assert load_postmortem(path) == bundle

    def test_build_postmortem_without_recorder(self):
        """Bundle assembly must not require a recorder (degraded mode)."""
        bundle = build_postmortem(_IdleWorld(1))
        assert bundle["ranks"]["0"]["status"] == "finalized"
        assert "events_recorded" not in bundle["ranks"]["0"]
