"""Property-based tests of collective semantics under random configurations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import run_spmd


@given(
    p=st.integers(1, 8),
    root=st.integers(0, 7),
    size=st.integers(0, 40),
    seed=st.integers(0, 10**5),
)
@settings(max_examples=25, deadline=None)
def test_bcast_delivers_exact_payload(p, root, size, seed):
    root %= p
    payload = np.random.default_rng(seed).standard_normal(size)

    def prog(comm):
        got = comm.bcast(payload if comm.rank == root else None, root=root)
        return np.array_equal(got, payload)

    assert all(run_spmd(prog, p).values)


@given(
    p=st.integers(1, 8),
    width=st.integers(1, 16),
    seed=st.integers(0, 10**5),
)
@settings(max_examples=25, deadline=None)
def test_allreduce_equals_local_sum(p, width, seed):
    rng = np.random.default_rng(seed)
    contributions = [rng.standard_normal(width) for _ in range(p)]
    expected = np.sum(contributions, axis=0)

    def prog(comm):
        out1 = comm.allreduce(contributions[comm.rank])
        out2 = comm.allreduce(contributions[comm.rank],
                              algorithm="recursive_doubling")
        return (
            np.allclose(out1, expected, atol=1e-10)
            and np.allclose(out2, expected, atol=1e-10)
        )

    assert all(run_spmd(prog, p).values)


@given(
    p=st.integers(1, 7),
    seed=st.integers(0, 10**5),
)
@settings(max_examples=20, deadline=None)
def test_reduce_scatter_implementations_agree(p, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((p, p, 3))  # [source, slot, payload]

    def prog(comm):
        values = [table[comm.rank, q] for q in range(comm.size)]
        a = comm.reduce_scatter([v.copy() for v in values])  # ring
        # Generic payloads take the alltoall + fold.
        b = comm.reduce_scatter([v.tolist() for v in values], op=np.add)
        expected = table[:, comm.rank].sum(axis=0)
        return np.allclose(a, expected, atol=1e-10) and np.allclose(
            b, expected, atol=1e-10
        )

    assert all(run_spmd(prog, p).values)


@given(
    p=st.integers(2, 8),
    ncolors=st.integers(1, 3),
    seed=st.integers(0, 10**5),
)
@settings(max_examples=20, deadline=None)
def test_split_partitions_and_sums(p, ncolors, seed):
    rng = np.random.default_rng(seed)
    colors = [int(rng.integers(ncolors)) for _ in range(p)]

    def prog(comm):
        sub = comm.split(color=colors[comm.rank])
        total = sub.allreduce(np.array([float(comm.rank)]))
        members = [r for r in range(p) if colors[r] == colors[comm.rank]]
        return sub.size == len(members) and total[0] == sum(members)

    assert all(run_spmd(prog, p).values)


@given(
    p=st.integers(1, 6),
    seed=st.integers(0, 10**5),
)
@settings(max_examples=20, deadline=None)
def test_alltoall_is_transpose(p, seed):
    """alltoall implements a matrix transpose of the payload table."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((p, p))

    def prog(comm):
        sent = [np.array([table[comm.rank, d]]) for d in range(comm.size)]
        got = comm.alltoall(sent)
        return all(got[s][0] == table[s, comm.rank] for s in range(comm.size))

    assert all(run_spmd(prog, p).values)
