"""Unit tests for the collective-algorithm cost formulas."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.perf import CommCosts
from repro.perf.collectives import (
    cost_allgather_ring,
    cost_allreduce_recursive_doubling,
    cost_allreduce_ring,
    cost_allreduce_tree,
    cost_alltoall_pairwise,
    cost_bcast_binomial,
    cost_reduce_scatter_ring,
    dispatched_allreduce_cost,
)

COMM = CommCosts(alpha=1e-6, beta=1e-9)


class TestFormulas:
    def test_single_rank_is_free(self):
        for fn in (cost_bcast_binomial, cost_allreduce_tree,
                   cost_allreduce_recursive_doubling, cost_allreduce_ring,
                   cost_allgather_ring, cost_alltoall_pairwise,
                   cost_reduce_scatter_ring):
            assert fn(1, 1000, COMM) == 0.0

    def test_bcast_binomial_value(self):
        # 3 rounds of (alpha + beta * 1000) at P=8
        expected = 3 * (1e-6 + 1e-6)
        assert cost_bcast_binomial(8, 1000, COMM) == pytest.approx(expected)

    def test_tree_allreduce_twice_recursive_doubling(self):
        for p in (4, 16, 64):
            assert cost_allreduce_tree(p, 5000, COMM) == pytest.approx(
                2 * cost_allreduce_recursive_doubling(p, 5000, COMM)
            )

    def test_ring_bandwidth_term_bounded_by_payload(self):
        # Ring allreduce moves 2*(P-1)/P of the payload: < 2 payloads.
        p, nbytes = 64, 10**8
        t = cost_allreduce_ring(p, nbytes, COMM)
        assert t < 2 * COMM.beta * nbytes + 2 * p * COMM.alpha
        assert t > 1.9 * COMM.beta * nbytes  # close to the bound at large P

    def test_long_message_crossover(self):
        """Ring beats recursive doubling for long payloads at large P."""
        p = 256
        small, big = 256, 1 << 26
        assert cost_allreduce_recursive_doubling(p, small, COMM) < \
            cost_allreduce_ring(p, small, COMM)
        assert cost_allreduce_ring(p, big, COMM) < \
            cost_allreduce_recursive_doubling(p, big, COMM)

    def test_alltoall_matches_paper_model(self):
        """(P_n - 1) messages of local/P_n each — eq. (10)'s redistribution."""
        p, local = 8, 10**6
        t = cost_alltoall_pairwise(p, local, COMM)
        expected = (p - 1) * (COMM.alpha + COMM.beta * local / p)
        assert t == pytest.approx(expected)

    def test_reduce_scatter_equals_alltoall_shape(self):
        p, total = 16, 4096
        assert cost_reduce_scatter_ring(p, total, COMM) == pytest.approx(
            cost_alltoall_pairwise(p, total, COMM)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cost_bcast_binomial(0, 10, COMM)
        with pytest.raises(ConfigurationError):
            cost_allgather_ring(2, -1, COMM)


class TestDispatchedCosts:
    """dispatched_allreduce_cost prices exactly what the engine selects."""

    def test_allreduce_tracks_best_regime(self):
        for p in (4, 16, 64):
            for nbytes in (256, 1 << 14, 1 << 22, 1 << 26):
                d = dispatched_allreduce_cost(p, nbytes, COMM)
                rd = cost_allreduce_recursive_doubling(p, nbytes, COMM)
                ring = cost_allreduce_ring(p, nbytes, COMM)
                assert d in (pytest.approx(rd), pytest.approx(ring))
                # Near the crossover the selection may be the slightly
                # worse of the two, but never by more than 2x.
                assert d <= 2.0 * min(rd, ring), (p, nbytes)

    def test_crossover_is_the_engines_threshold(self):
        """256 KiB: the last 8 bytes below price recursive doubling, the
        threshold itself prices the ring (the rule the engine runs)."""
        below, at = (1 << 18) - 8, 1 << 18
        assert dispatched_allreduce_cost(8, below, COMM) == pytest.approx(
            cost_allreduce_recursive_doubling(8, below, COMM))
        assert dispatched_allreduce_cost(8, at, COMM) == pytest.approx(
            cost_allreduce_ring(8, at, COMM))
        assert dispatched_allreduce_cost(1, at, COMM) == 0.0


class TestApiDocsGenerator:
    def test_document_package_produces_entries(self):
        import sys, os

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "tools"))
        try:
            from gen_api_docs import document_package, first_paragraph
        finally:
            sys.path.pop(0)
        lines = document_package("repro.perf")
        entries = [l for l in lines if l.startswith("- ")]
        assert any("simulate_sthosvd" in l for l in entries)
        assert any("tune_grid" in l for l in entries)
        import repro.perf

        assert first_paragraph(repro.perf.simulate_sthosvd).startswith("Model")
