"""Ablation reports for the design choices called out in DESIGN.md.

Not a paper figure — these quantify the individual design decisions the
paper's algorithms embed:

* structured ``tpqrt`` vs dense QR of the stacked triangles (flop
  saving of exploiting triangularity in the TSQR reduction);
* flat-tree TensorLQ (Alg. 2) vs a monolithic LQ of an explicitly
  assembled unfolding (both give the same factor; the flat tree never
  assembles the unfolding);
* butterfly all-reduce TSQR vs reduce-to-root-then-broadcast (the
  butterfly finishes with the factor everywhere in log P rounds);
* mode ordering policies (forward / backward / greedy) when ranks are
  known a priori (Sec. 4.2.3 mentions ordering can be optimized);
* the block-chunking knob of the sequential flat tree.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import greedy_order
from repro.linalg import tensor_lq, gelq, tpqrt
from repro.linalg.flops import tpqrt_flops
from repro.perf import ANDES, simulate_sthosvd
from repro.tensor import DenseTensor
from repro.util import format_table


# ---------------------------------------------------------------------------
# tpqrt structured vs dense QR of the stack
# ---------------------------------------------------------------------------
class TestStructuredTpqrt:
    N = 96

    def test_flop_saving(self, write_report):
        n = self.N
        structured = tpqrt_flops(n, n, n)
        dense = 2 * (2 * n) * n * n - (2 * n**3) // 3
        write_report(
            "ablation_tpqrt_flops",
            format_table(
                ["kernel", "flops"],
                [["tpqrt (triangular)", structured], ["dense QR of stack", dense]],
                title=f"TSQR reduction step flops, n={n}",
            ),
        )
        # Structured reduction does ~3-5x fewer flops.
        assert structured < 0.5 * dense


# ---------------------------------------------------------------------------
# Flat-tree TensorLQ vs monolithic LQ of an assembled unfolding
# ---------------------------------------------------------------------------
class TestFlatTreeVsMonolithic:
    def test_same_factor(self):
        rng = np.random.default_rng(1)
        tensor = DenseTensor(rng.standard_normal((40, 40, 40, 40)))
        L1 = tensor_lq(tensor, 1)
        # Assemble the (non-contiguous) unfolding explicitly, then LQ.
        L2 = gelq(np.ascontiguousarray(tensor.unfold(1)))
        np.testing.assert_allclose(L1 @ L1.T, L2 @ L2.T, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# Butterfly vs reduce+broadcast tree (modeled communication)
# ---------------------------------------------------------------------------
class TestButterflyVsReduceBcast:
    def test_report_comm_costs(self, write_report):
        """Both trees move O(n^2 log P) words, but the butterfly needs a
        single phase of log P exchanges while reduce+bcast needs two
        sequential phases — 2x the latency on the critical path."""
        n, word = 256, 8
        alpha, beta = ANDES.comm.alpha, ANDES.comm.beta
        tri_bytes = n * (n + 1) / 2 * word
        rows = []
        for P in (32, 256, 2048):
            steps = math.ceil(math.log2(P))
            butterfly = steps * (alpha + beta * tri_bytes)
            reduce_bcast = 2 * steps * (alpha + beta * tri_bytes)
            rows.append([P, butterfly * 1e3, reduce_bcast * 1e3])
        write_report(
            "ablation_butterfly_tree",
            format_table(
                ["P", "butterfly [ms]", "reduce+bcast [ms]"],
                rows,
                title=f"TSQR tree critical path, n={n} triangle",
            ),
        )
        assert all(r[1] < r[2] for r in rows)


# ---------------------------------------------------------------------------
# Mode ordering with known ranks
# ---------------------------------------------------------------------------
class TestModeOrdering:
    SHAPE = (400, 100, 300, 50)
    RANKS = (10, 40, 15, 40)

    def test_report_ordering(self, write_report):
        orders = {
            "forward": "forward",
            "backward": "backward",
            "greedy": greedy_order(self.SHAPE, self.RANKS),
        }
        runs = {
            name: simulate_sthosvd(
                self.SHAPE, self.RANKS, (2, 2, 2, 2), method="qr",
                mode_order=order, machine=ANDES,
            )
            for name, order in orders.items()
        }
        rows = [
            [name, run.total_seconds, run.flops_total / 1e9]
            for name, run in runs.items()
        ]
        write_report(
            "ablation_mode_ordering",
            format_table(
                ["ordering", "modeled s", "GFLOP"],
                rows,
                title=f"Mode ordering, shape {self.SHAPE} -> ranks {self.RANKS}",
            ),
        )
        # Greedy is a heuristic (Sec. 4.2.3): it tracks reduction ratios
        # but ignores that early modes process the largest intermediate
        # tensor, so it is not always optimal.  It must, however, avoid
        # the worst naive ordering and stay near the best.
        t = {name: run.total_seconds for name, run in runs.items()}
        assert t["greedy"] <= max(t["forward"], t["backward"]) * 1.01
        assert t["greedy"] <= min(t["forward"], t["backward"]) * 1.3


# ---------------------------------------------------------------------------
# Flat-tree chunking knob
# ---------------------------------------------------------------------------
class TestChunking:
    def test_report_chunk_effect(self, write_report):
        """The per-call overhead the chunked flat tree removes: one
        tpqrt per block vs one per ~2048-column run."""
        rng = np.random.default_rng(3)
        X = DenseTensor(rng.standard_normal((30, 30, 30, 30)))
        rows_dim = 30

        def per_block():
            Rt = np.triu(gelq(np.concatenate(
                [X.column_block(1, j) for j in range(1)], axis=1)).T).copy()
            work = np.empty((30, rows_dim))
            for j in range(1, X.num_column_blocks(1)):
                np.copyto(work, X.column_block(1, j).T)
                tpqrt(np.ascontiguousarray(Rt), work)
            return Rt

        import time

        t0 = time.perf_counter()
        per_block()
        t_block = time.perf_counter() - t0
        t0 = time.perf_counter()
        tensor_lq(X, 1)
        t_chunk = time.perf_counter() - t0
        write_report(
            "ablation_chunking",
            format_table(
                ["variant", "seconds"],
                [["one tpqrt per block", t_block], ["chunked (library)", t_chunk]],
                title="Flat-tree chunking, 30^4 tensor, mode 1",
            ),
        )
        assert t_chunk < t_block

