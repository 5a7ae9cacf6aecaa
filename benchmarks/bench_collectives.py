"""Collective-algorithm ablation: functional equivalence + modeled costs.

Shows why each collective fills its role in the pipeline:

* short messages (triangles, Gram matrices): latency-bound — recursive
  doubling wins (log P alphas);
* long messages (redistribution slabs): bandwidth-bound — ring/pairwise
  schedules win ((P-1)/P of the payload, alpha-heavy but beta-light).

The functional side checks the real implementations agree on the
threaded runtime; the modeled side evaluates the alpha-beta formulas at
the paper's scales where latency/bandwidth crossovers actually happen,
and the measured side times the 256 KiB allreduce crossover next to the
model.  Each class asserts the shape and writes a plain-text report
(``collectives_*.txt``).

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_collectives.py -q
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.perf import ANDES
from repro.perf.collectives import (
    cost_allreduce_recursive_doubling,
    cost_allreduce_ring,
    cost_allreduce_tree,
    cost_alltoall_pairwise,
    dispatched_allreduce_cost,
)
from repro.util import format_table

P_MEASURED = 8
MEASURED_SIZES = (64, 1 << 12, 1 << 15, 1 << 18)  # elements (512 B .. 2 MiB)
MEASURED_ROUNDS = 15
# The schedules a measured row times: two fixed ones and the dispatch.
MEASURED_ALGORITHMS = ("recursive_doubling", "ring", None)


def allreduce_crossover_rows(comm=ANDES.comm) -> list:
    """[P, bytes, tree_us, recdbl_us, ring_us] at the paper's scales."""
    rows = []
    for p, nbytes in [(64, 8 * 256 * 256 // 2), (64, 8 * 32 * 32 // 2),
                      (2048, 8 * 256 * 256 // 2), (2048, 512)]:
        rows.append([
            p, nbytes,
            cost_allreduce_tree(p, nbytes, comm) * 1e6,
            cost_allreduce_recursive_doubling(p, nbytes, comm) * 1e6,
            cost_allreduce_ring(p, nbytes, comm) * 1e6,
        ])
    return rows


def dispatch_rows(comm=ANDES.comm) -> list:
    """[P, bytes, recdbl_us, ring_us, dispatched_us] over both regimes."""
    rows = []
    for p in (8, 64, 512):
        for nbytes in (512, 1 << 14, 1 << 21, 1 << 27):
            rd = cost_allreduce_recursive_doubling(p, nbytes, comm)
            ring = cost_allreduce_ring(p, nbytes, comm)
            auto = dispatched_allreduce_cost(p, nbytes, comm)
            rows.append([p, nbytes, rd * 1e6, ring * 1e6, auto * 1e6])
    return rows


def measure_allreduce(algorithm, n) -> float:
    """Wall seconds of one ``P_MEASURED``-rank world running one allreduce."""
    def prog(comm):
        return comm.allreduce(np.ones(n), algorithm=algorithm)

    t0 = time.perf_counter()
    run_spmd(prog, P_MEASURED)
    return time.perf_counter() - t0


def measured_rounds(n) -> list:
    """``MEASURED_ROUNDS`` rounds of ``[recdbl_s, ring_s, dispatched_s]``.

    Each round times the three schedules back to back, in an order that
    rotates from round to round, so a slow stretch of the host lands on
    all three alike and no schedule always runs first.
    """
    rounds = []
    k = len(MEASURED_ALGORITHMS)
    for r in range(MEASURED_ROUNDS):
        times = [0.0] * k
        for i in range(k):
            j = (r + i) % k
            times[j] = measure_allreduce(MEASURED_ALGORITHMS[j], n)
        rounds.append(times)
    return rounds


def measured_allreduce_rows(comm=ANDES.comm) -> list:
    """[bytes, recdbl_ms, ring_ms, dispatched_ms, dispatched / best,
    model_rd_us, model_ring_us]: medians over the rounds, the ratio the
    median of each round's own dispatched-over-best."""
    rows = []
    for n in MEASURED_SIZES:
        nbytes = n * 8
        rounds = measured_rounds(n)
        rows.append([
            nbytes,
            *(statistics.median(col) * 1e3 for col in zip(*rounds)),
            statistics.median(auto / min(rd, ring)
                              for rd, ring, auto in rounds),
            cost_allreduce_recursive_doubling(P_MEASURED, nbytes, comm) * 1e6,
            cost_allreduce_ring(P_MEASURED, nbytes, comm) * 1e6,
        ])
    return rows


class TestFunctionalEquivalence:
    """The real algorithms agree with the built-in collectives."""

    def test_all_variants_agree(self):
        def prog(comm):
            v = np.arange(64.0) + comm.rank
            a = comm.allreduce(v)
            b = comm.allreduce(v, algorithm="ring")
            g1 = comm.allgather(v[:2])
            g2 = comm.bcast(comm.gather(v[:2]))
            slots = [np.array([comm.rank + q]) for q in range(comm.size)]
            r1 = comm.reduce_scatter(slots)
            r2 = comm.reduce_scatter([x.tolist() for x in slots], op=np.add)
            return (
                np.allclose(a, b)
                and all(np.allclose(x, y) for x, y in zip(g1, g2))
                and np.allclose(r1, r2)
            )

        assert all(run_spmd(prog, 6).values)


class TestModeledCrossovers:
    def test_report_crossovers(self, write_report):
        rows = allreduce_crossover_rows()
        write_report(
            "collectives_allreduce_crossover",
            format_table(
                ["P", "bytes", "tree [us]", "recdbl [us]", "ring [us]"],
                rows,
                title="Modeled allreduce critical paths (Andes alpha/beta)",
            ),
        )
        for p, nbytes, tree, rd, ring in rows:
            # Recursive doubling always beats tree (half the rounds).
            assert rd < tree
            if nbytes <= 512:
                # tiny payloads: latency dominates -> ring loses at scale
                if p >= 2048:
                    assert rd < ring

    def test_dispatched_matches_or_beats_fixed_modeled(self, write_report):
        """The engine's selection is never worse than either fixed
        algorithm in either regime (far from the crossover it equals the
        better one exactly)."""
        rows = dispatch_rows()
        write_report(
            "collectives_dispatch_vs_fixed",
            format_table(
                ["P", "bytes", "recdbl [us]", "ring [us]", "dispatched [us]"],
                rows,
                title="Dispatched allreduce vs fixed algorithms (Andes model)",
            ),
        )
        for p, nbytes, rd, ring, auto in rows:
            # The dispatch always selects one of the fixed algorithms,
            # and near the crossover never loses by more than 2x.
            assert auto in (rd, ring)
            assert auto <= 2.0 * min(rd, ring)
            # In the regimes (an order of magnitude away from the
            # crossover) the dispatch picks the winner outright.
            if nbytes <= 1 << 14 or nbytes >= 1 << 27:
                assert auto == pytest.approx(min(rd, ring))

    def test_redistribution_schedule_is_bandwidth_optimal(self):
        """The paper's pairwise all-to-all moves (P-1)/P of the local
        data — no schedule can move less, so the modeled cost is within
        ~latency terms of the bandwidth lower bound."""
        comm = ANDES.comm
        p, local_bytes = 16, 8 * (250**4 // 512)
        actual = cost_alltoall_pairwise(p, local_bytes, comm)
        lb = comm.beta * local_bytes * (p - 1) / p
        assert actual < lb * 1.01 + p * comm.alpha * 1.01
        assert actual >= lb


class TestMeasuredCrossovers:
    """Wall-clock crossovers on the threaded runtime, next to the model.

    The simulator's measured costs are message-handling overhead plus
    real reduction flops and staging copies, so the small/large regimes
    behave like the alpha/beta model predicts: recursive doubling wins
    tiny payloads on round count; the ring wins big payloads because it
    reduces block-by-block (fewer flops on the critical path) and the
    zero-copy sends remove snapshotting entirely.
    """

    def test_report_measured_allreduce_crossover(self, write_report):
        rows = measured_allreduce_rows()
        write_report(
            "collectives_measured_crossover",
            format_table(
                ["bytes", "recdbl [ms]", "ring [ms]", "dispatched [ms]",
                 "dispatched/best", "model recdbl [us]", "model ring [us]"],
                rows,
                title=(
                    f"Measured allreduce wall-clock (P={P_MEASURED}, threaded "
                    f"runtime, medians of {MEASURED_ROUNDS} interleaved "
                    "rounds) vs Andes model"
                ),
            ),
        )
        # The dispatched engine tracks the better fixed algorithm in
        # both regimes: within 2x of it in the median round (generous
        # slack: thread scheduling is noisy, and pairing the schedules
        # round by round cancels what the host does to all three).
        for nbytes, *_, ratio, _rd_us, _ring_us in rows:
            assert ratio <= 2.0, nbytes

