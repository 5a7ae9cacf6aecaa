"""End-to-end observability: traced parallel drivers on a small tensor.

Checks the span tracer, the one record of where time goes, and the
progress callback on a real distributed ST-HOSVD / HOOI run.
"""

from __future__ import annotations

import pytest

from repro.core import hooi, sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.instrument import (
    PHASE_COMM,
    PHASE_GRAM,
    PHASE_LQ,
    PHASE_TTM,
)
from repro.mpi import run_spmd
from repro.obs import Tracer

GRID = (2, 2, 1)
P = 4


@pytest.fixture(scope="module")
def X():
    return low_rank_tensor((12, 10, 8), (3, 4, 2), rng=7, noise=1e-9).data


def _traced_sthosvd(X, *, method="qr", progress_sink=None):
    tracer = Tracer()

    def prog(comm):
        comms = GridComms(comm, ProcessorGrid(GRID))
        dt = DistributedTensor.from_full(comms, X)
        events: list[dict] = []
        res = sthosvd(
            dt, tol=1e-6, method=method, progress=events.append,
        )
        return {
            "rank": comm.rank,
            "events": events,
            "ranks": res.ranks,
        }

    outs = run_spmd(prog, P, tracer=tracer)
    return tracer, outs


class TestSthosvdTrace:
    def test_spans_cover_every_layer(self, X):
        tracer, _ = _traced_sthosvd(X)
        names = tracer.span_names()
        for required in ("sthosvd.mode", "lq", "svd", "ttm",
                         "redistribute", "tensor_lq", "geqr"):
            assert required in names, f"missing span {required!r}"
        assert any(n.startswith("comm.") for n in names)
        assert tracer.ranks() == list(range(P))

    def test_span_phase_totals_match_phase_timer(self, X):
        """Per rank, the outermost phase spans (the per-phase breakdown)
        lie inside the sthosvd.mode spans and cover most of them: only
        the glue between phases (rank selection, factor slicing) is
        left untimed, and that is small for a 12x10x8 tensor."""
        tracer, _ = _traced_sthosvd(X)
        for r in range(P):
            modes = [s for s in tracer.spans
                     if s.rank == r and s.name == "sthosvd.mode"]
            mode_total = sum(m.duration for m in modes)
            phase_total = sum(
                s.duration for s in tracer.spans
                if s.rank == r and s.phase is not None
                and s.enclosing_phase is None
                and any(m.start <= s.start
                        and s.start + s.duration <= m.start + m.duration
                        for m in modes)
            )
            assert phase_total > 0.0
            assert mode_total > 0.0
            assert phase_total <= mode_total + 1e-3
            assert abs(mode_total - phase_total) <= max(
                0.5 * mode_total, 0.02
            )

    def test_comm_row_present_and_bounded_by_tracer(self, X):
        """Every rank's breakdown has Comm, LQ and TTM rows, and it
        communicates inside both its reductions and its truncations:
        the comm seconds inside LQ and TTM spans are positive and never
        exceed the Comm row."""
        tracer, _ = _traced_sthosvd(X)
        for r in range(P):
            by_phase = tracer.by_phase(r)
            assert by_phase.get(PHASE_COMM, 0.0) > 0.0
            assert by_phase.get(PHASE_LQ, 0.0) > 0.0
            assert by_phase.get(PHASE_TTM, 0.0) > 0.0
            comm_in = {PHASE_LQ: 0.0, PHASE_TTM: 0.0}
            for s in tracer.spans:
                if (s.rank == r and s.phase == PHASE_COMM
                        and not s.self_nested
                        and s.enclosing_phase in comm_in):
                    comm_in[s.enclosing_phase] += s.duration
            assert comm_in[PHASE_LQ] > 0.0 and comm_in[PHASE_TTM] > 0.0
            assert sum(comm_in.values()) <= by_phase[PHASE_COMM] + 1e-6

    def test_gram_method_attributes_comm_from_gram_row(self, X):
        tracer, _ = _traced_sthosvd(X, method="gram")
        for r in range(P):
            by_phase = tracer.by_phase(r)
            assert by_phase.get(PHASE_COMM, 0.0) > 0.0
            assert by_phase.get(PHASE_GRAM, 0.0) > 0.0
            assert PHASE_LQ not in by_phase

    def test_progress_events_one_per_mode_on_rank0(self, X):
        _, outs = _traced_sthosvd(X)
        by_rank = {out["rank"]: out for out in outs}
        events = by_rank[0]["events"]
        assert len(events) == 3
        for r in range(1, P):
            assert by_rank[r]["events"] == []
        for i, ev in enumerate(events):
            assert set(ev) == {"step", "total_steps", "mode", "rank",
                               "ranks", "seconds", "elapsed"}
            assert ev["step"] == i + 1
            assert ev["total_steps"] == 3
            assert ev["rank"] == ev["ranks"][ev["mode"]]
            assert 0.0 < ev["seconds"] <= ev["elapsed"]
        assert [ev["mode"] for ev in events] == [0, 1, 2]
        # The last event reports the final core shape.
        assert events[-1]["ranks"] == by_rank[0]["ranks"]

    def test_untraced_run_unaffected(self, X):
        """Without a tracer the driver picks the same ranks."""

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(GRID))
            dt = DistributedTensor.from_full(comms, X)
            return sthosvd(dt, tol=1e-6, method="qr").ranks

        outs = run_spmd(prog, P)
        _, traced_outs = _traced_sthosvd(X)
        assert outs[0] == traced_outs[0]["ranks"]


class TestHooiTrace:
    def test_hooi_progress_and_comm_row(self, X):
        tracer = Tracer()

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(GRID))
            dt = DistributedTensor.from_full(comms, X)
            events: list[dict] = []
            res = hooi(
                dt, (3, 4, 2), max_iters=2, progress=events.append,
            )
            return {
                "rank": comm.rank,
                "events": events,
                "iters": res.iterations,
            }

        outs = run_spmd(prog, P, tracer=tracer)
        assert "hooi.mode" in tracer.span_names()
        by_rank = {out["rank"]: out for out in outs}
        events = by_rank[0]["events"]
        iters = by_rank[0]["iters"]
        assert len(events) == 3 * iters
        for ev in events:
            assert set(ev) == {"step", "total_steps", "iteration", "mode",
                               "rank", "ranks", "seconds", "elapsed"}
            assert ev["rank"] == ev["ranks"][ev["mode"]] == (3, 4, 2)[ev["mode"]]
            assert 0.0 < ev["seconds"] <= ev["elapsed"]
        assert events[0]["iteration"] == 0
        for r in range(1, P):
            assert by_rank[r]["events"] == []
        for r in range(P):
            assert tracer.by_phase(r).get(PHASE_COMM, 0.0) > 0.0
