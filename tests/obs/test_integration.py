"""End-to-end observability: traced parallel drivers on a small tensor.

Cross-checks the three measurement systems against each other — the
span tracer, the :class:`~repro.instrument.PhaseTimer` carried by the
driver result (including its attributed Comm row), and the progress
callback — on a real distributed ST-HOSVD / HOOI run.
"""

from __future__ import annotations

import pytest

from repro.core import hooi_parallel, sthosvd_parallel
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
        res = sthosvd_parallel(
            dt, tol=1e-6, method=method, progress=events.append,
        )
        return {
            "rank": comm.rank,
            "timer": dict(res.timer.by_phase),
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
        """Per rank, the PhaseTimer's total (all rows, Comm included)
        must agree with the tracer's driver spans: attribute_comm moves
        time between rows but preserves the sum, and the sthosvd.mode
        spans bound the timed blocks from above (plus per-mode glue)."""
        tracer, outs = _traced_sthosvd(X)
        for out in outs:
            r = out["rank"]
            timer_total = sum(out["timer"].values())
            mode_total = sum(
                s.duration for s in tracer.spans
                if s.rank == r and s.name == "sthosvd.mode"
            )
            assert timer_total > 0.0
            assert mode_total > 0.0
            # Timed blocks live inside the sthosvd.mode spans.
            assert timer_total <= mode_total + 1e-3
            # ...and the glue between them (rank selection, factor
            # slicing) is small for a 12x10x8 tensor.
            assert abs(mode_total - timer_total) <= max(
                0.5 * mode_total, 0.02
            )

    def test_comm_row_present_and_bounded_by_tracer(self, X):
        """Satellite (a): the PhaseTimer breakdown gains a Comm row.
        Its value can never exceed what the tracer measured in comm
        spans (attribution only moves measured comm seconds)."""
        tracer, outs = _traced_sthosvd(X)
        for out in outs:
            timer = out["timer"]
            assert timer.get(PHASE_COMM, 0.0) > 0.0
            assert timer.get(PHASE_LQ, 0.0) > 0.0
            assert timer.get(PHASE_TTM, 0.0) > 0.0
            tracer_comm = tracer.by_phase(out["rank"]).get(PHASE_COMM, 0.0)
            assert timer[PHASE_COMM] <= tracer_comm + 1e-6

    def test_gram_method_attributes_comm_from_gram_row(self, X):
        _, outs = _traced_sthosvd(X, method="gram")
        for out in outs:
            timer = out["timer"]
            assert timer.get(PHASE_COMM, 0.0) > 0.0
            assert timer.get(PHASE_GRAM, 0.0) > 0.0
            assert PHASE_LQ not in timer

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
        """Without a tracer the driver still produces the Comm-free
        timer (no attribution source) and identical ranks."""

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(GRID))
            dt = DistributedTensor.from_full(comms, X)
            res = sthosvd_parallel(dt, tol=1e-6, method="qr")
            return res.ranks, dict(res.timer.by_phase)

        outs = run_spmd(prog, P)
        _, traced_outs = _traced_sthosvd(X)
        assert outs[0][0] == traced_outs[0]["ranks"]
        assert PHASE_COMM not in outs[0][1]


class TestHooiTrace:
    def test_hooi_progress_and_comm_row(self, X):
        tracer = Tracer()

        def prog(comm):
            comms = GridComms(comm, ProcessorGrid(GRID))
            dt = DistributedTensor.from_full(comms, X)
            events: list[dict] = []
            res = hooi_parallel(
                dt, (3, 4, 2), max_iters=2, progress=events.append,
            )
            return {
                "rank": comm.rank,
                "timer": dict(res.timer.by_phase),
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
        for out in outs:
            assert out["timer"].get(PHASE_COMM, 0.0) > 0.0
