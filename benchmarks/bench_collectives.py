"""Collective-algorithm ablation: functional equivalence + modeled costs.

Shows why each collective fills its role in the pipeline:

* short messages (triangles, Gram matrices): latency-bound — recursive
  doubling wins (log P alphas);
* long messages (redistribution slabs): bandwidth-bound — ring/pairwise
  schedules win ((P-1)/P of the payload, alpha-heavy but beta-light).

The functional side times the real implementations on the threaded
runtime; the modeled side evaluates the alpha-beta formulas at the
paper's scales where latency/bandwidth crossovers actually happen.

Two consumers share the row-computing functions below:

* the pytest classes — qualitative shape assertions plus the
  plain-text crossover reports (``collectives_*.txt``), CI's
  collectives-smoke job;
* ``main()`` — a versioned machine-readable snapshot
  (``benchmarks/reports/BENCH_collectives.json``) in the same envelope
  as ``BENCH_sthosvd_scaling.json``, diffable against a later run with
  ``repro bench --compare`` and its tolerance bands.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_collectives.py -q
    PYTHONPATH=src python benchmarks/bench_collectives.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.mpi import run_spmd  # noqa: E402
from repro.obs.postmortem import host_metadata, repo_commit  # noqa: E402
from repro.perf import ANDES  # noqa: E402
from repro.perf.collectives import (  # noqa: E402
    cost_allreduce_recursive_doubling,
    cost_allreduce_ring,
    cost_allreduce_tree,
    cost_alltoall_pairwise,
    dispatched_allreduce_cost,
)
from repro.util import format_table  # noqa: E402

P_FUNCTIONAL = 8
P_MEASURED = 8
MEASURED_SIZES = (64, 1 << 12, 1 << 15, 1 << 18)  # elements (512 B .. 2 MiB)
MEASURED_REPEATS = 5

REPORT = os.path.join(os.path.dirname(__file__), "reports",
                      "BENCH_collectives.json")


# ---------------------------------------------------------------------------
# Row computations shared by the pytest reports and the JSON snapshot
# ---------------------------------------------------------------------------

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


def measure_allreduce(algorithm, n, *, nprocs=P_MEASURED,
                      repeats=MEASURED_REPEATS) -> float:
    """Best-of-``repeats`` wall seconds for one allreduce algorithm."""
    def prog(comm):
        return comm.allreduce(np.ones(n), algorithm=algorithm)

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_spmd(prog, nprocs)
        best = min(best, time.perf_counter() - t0)
    return best


def measured_allreduce_rows(comm=ANDES.comm, *, sizes=MEASURED_SIZES,
                            repeats=MEASURED_REPEATS) -> list:
    """[bytes, recdbl_ms, ring_ms, dispatched_ms, model_rd_us, model_ring_us]."""
    rows = []
    for n in sizes:
        nbytes = n * 8
        rows.append([
            nbytes,
            measure_allreduce("recursive_doubling", n, repeats=repeats) * 1e3,
            measure_allreduce("ring", n, repeats=repeats) * 1e3,
            measure_allreduce(None, n, repeats=repeats) * 1e3,
            cost_allreduce_recursive_doubling(P_MEASURED, nbytes, comm) * 1e6,
            cost_allreduce_ring(P_MEASURED, nbytes, comm) * 1e6,
        ])
    return rows


class TestFunctionalEquivalence:
    """Time the real algorithms against the built-in collectives."""

    def test_bench_allreduce_builtin(self, benchmark):
        def run():
            def prog(comm):
                return comm.allreduce(np.ones(1000))

            return run_spmd(prog, P_FUNCTIONAL)

        benchmark.pedantic(run, rounds=2, iterations=1)

    def test_bench_allreduce_recursive_doubling(self, benchmark):
        def run():
            def prog(comm):
                return comm.allreduce(np.ones(1000),
                                      algorithm="recursive_doubling")

            return run_spmd(prog, P_FUNCTIONAL)

        benchmark.pedantic(run, rounds=2, iterations=1)

    def test_all_variants_agree(self, benchmark):
        def run():
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

            return all(run_spmd(prog, 6).values)

        assert benchmark.pedantic(run, rounds=1, iterations=1)


class TestModeledCrossovers:
    def test_report_crossovers(self, benchmark, write_report):
        rows = benchmark.pedantic(
            allreduce_crossover_rows, rounds=1, iterations=1
        )
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

    def test_dispatched_matches_or_beats_fixed_modeled(self, benchmark, write_report):
        """The engine's selection is never worse than either fixed
        algorithm in either regime (far from the crossover it equals the
        better one exactly)."""
        rows = benchmark.pedantic(dispatch_rows, rounds=1, iterations=1)
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

    def test_redistribution_schedule_is_bandwidth_optimal(self, benchmark):
        """The paper's pairwise all-to-all moves (P-1)/P of the local
        data — no schedule can move less, so the modeled cost is within
        ~latency terms of the bandwidth lower bound."""
        comm = ANDES.comm
        p, local_bytes = 16, 8 * (250**4 // 512)

        def compute():
            actual = cost_alltoall_pairwise(p, local_bytes, comm)
            lower_bound = comm.beta * local_bytes * (p - 1) / p
            return actual, lower_bound

        actual, lb = benchmark.pedantic(compute, rounds=1, iterations=1)
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

    def test_report_measured_allreduce_crossover(self, benchmark, write_report):
        rows = benchmark.pedantic(
            measured_allreduce_rows, rounds=1, iterations=1
        )
        write_report(
            "collectives_measured_crossover",
            format_table(
                ["bytes", "recdbl [ms]", "ring [ms]", "dispatched [ms]",
                 "model recdbl [us]", "model ring [us]"],
                rows,
                title=(
                    f"Measured allreduce wall-clock (P={P_MEASURED}, threaded "
                    "runtime, best of 5) vs Andes model"
                ),
            ),
        )
        # The dispatched engine tracks the better fixed algorithm in
        # both regimes (generous slack: thread scheduling is noisy).
        for nbytes, rd_ms, ring_ms, auto_ms, *_ in rows:
            assert auto_ms <= 2.0 * min(rd_ms, ring_ms), nbytes


# ---------------------------------------------------------------------------
# Versioned JSON snapshot (``repro bench --compare``-able)
# ---------------------------------------------------------------------------

def build_snapshot(*, repeats: int = MEASURED_REPEATS) -> dict:
    """Assemble the ``BENCH_collectives.json`` snapshot dict.

    Modeled sections are deterministic (alpha-beta formulas on the
    Andes machine model); the ``measured`` section is wall-clock on the
    threaded runtime, so comparisons should give it a generous band
    (``repro bench --compare --tolerance-for measured 1.0 ...``).
    """
    modeled_allreduce = {
        f"P{p}.b{nbytes}": {
            "tree_us": round(tree, 3),
            "recdbl_us": round(rd, 3),
            "ring_us": round(ring, 3),
        }
        for p, nbytes, tree, rd, ring in allreduce_crossover_rows()
    }
    modeled_dispatch = {
        f"P{p}.b{nbytes}": {
            "recdbl_us": round(rd, 3),
            "ring_us": round(ring, 3),
            "dispatched_us": round(auto, 3),
        }
        for p, nbytes, rd, ring, auto in dispatch_rows()
    }
    measured = {
        f"b{nbytes}": {
            "recdbl_ms": round(rd_ms, 4),
            "ring_ms": round(ring_ms, 4),
            "dispatched_ms": round(auto_ms, 4),
        }
        for nbytes, rd_ms, ring_ms, auto_ms, *_ in
        measured_allreduce_rows(repeats=repeats)
    }
    return {
        "bench": "collectives",
        "version": 1,
        "commit": repo_commit(),
        "generated_unix": int(time.time()),
        "host": host_metadata(),
        "note": (
            "modeled sections are deterministic alpha-beta evaluations "
            "(Andes machine model); 'measured' is threaded-runtime "
            "wall-clock and needs a wide tolerance band when compared."
        ),
        "config": {
            "machine": "andes",
            "p_measured": P_MEASURED,
            "measured_sizes": [n * 8 for n in MEASURED_SIZES],
            "repeats": repeats,
        },
        "modeled_allreduce": modeled_allreduce,
        "modeled_dispatch": modeled_dispatch,
        "measured_allreduce": measured,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=MEASURED_REPEATS,
                        help="wall-clock repetitions per point (min is kept)")
    parser.add_argument("--out", default=REPORT)
    args = parser.parse_args(argv)

    snapshot = build_snapshot(repeats=args.repeats)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=False)
        fh.write("\n")
    npoints = sum(
        len(snapshot[k]) for k in
        ("modeled_allreduce", "modeled_dispatch", "measured_allreduce")
    )
    print(f"wrote {args.out} ({npoints} data points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
