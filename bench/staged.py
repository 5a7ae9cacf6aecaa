"""Traced run: spans recorded from outside, and the staged mode loops.

The end-to-end rounds call the drivers (`repro.sthosvd`,
`sthosvd_parallel`) as one opaque call.  The traced round replaces that
call by a loop owned by the benchmark that composes the same public
layer functions the drivers compose, with a span around each call, so a
solve decomposes into per-layer time without touching `src/`.  The
staged loop must reproduce the driver's factors bit for bit; the caller
checks that and rejects the trace otherwise.

A span is ``(name, layer, mode, rank, start, end, parent, solve)``;
``parent`` indexes the enclosing span of the same rank (-1 for a root)
and ``solve`` numbers the solve it belongs to.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.core.truncation import choose_rank, error_budget_per_mode
from repro.dist import (
    butterfly_tsqr_reduce,
    par_tensor_gram,
    par_ttm_truncate,
    redistribute_unfolding_to_columns,
)
from repro.instrument import PHASE_TTM, FlopCounter
from repro.linalg import gelq, left_svd_of_triangle, svd_from_gram, tensor_gram, tensor_lq
from repro.mpi import Communicator
from repro.tensor.ttm import ttm, ttm_flops

# The rank thread's active recorder, read by the Communicator wrapper.
_active = threading.local()

# Public blocking operations of Communicator; the dist kernels use no others.
COMM_METHODS = (
    "send", "recv", "sendrecv", "barrier", "bcast", "reduce", "allreduce",
    "gather", "allgather", "scatter", "alltoall", "reduce_scatter",
)

STAGE_LAYERS = ("linalg", "tensor", "core", "dist")


class Spans:
    """In-memory span list of one rank."""

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self.rows: list = []
        self.solve = -1
        self._stack: list[int] = []
        self._in_comm = False

    @contextmanager
    def span(self, name: str, layer: str, mode=None):
        idx = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[idx] = (name, layer, mode, self.rank, start, end,
                              parent, self.solve)

    def wait(self, comm, mode) -> None:
        """Barrier inserted by the benchmark before a dist stage; its
        duration is the time this rank waited for the slower one."""
        self._in_comm = True
        try:
            with self.span("barrier", "wait", mode):
                comm.barrier()
        finally:
            self._in_comm = False

    @contextmanager
    def active(self):
        _active.spans = self
        try:
            yield self
        finally:
            _active.spans = None


def _timed(name, orig):
    @functools.wraps(orig)
    def wrapper(self, *args, **kwargs):
        spans = getattr(_active, "spans", None)
        if spans is None or spans._in_comm:
            return orig(self, *args, **kwargs)
        spans._in_comm = True
        try:
            with spans.span(name, "mpi"):
                return orig(self, *args, **kwargs)
        finally:
            spans._in_comm = False
    return wrapper


@contextmanager
def traced_communicator():
    """Time the outermost call of each public Communicator method.

    Installed for the traced round only, and before the world is
    launched so forked rank processes inherit it.
    """
    originals = {m: getattr(Communicator, m) for m in COMM_METHODS}
    for name, orig in originals.items():
        setattr(Communicator, name, _timed(name, orig))
    try:
        yield
    finally:
        for name, orig in originals.items():
            setattr(Communicator, name, orig)


def staged_seq_solve(tensor, method: str, tol: float, spans: Spans,
                     counter: FlopCounter):
    """Sequential ST-HOSVD as `repro.sthosvd` composes it.

    Returns ``(core, factors, work)``; ``work[n]`` is the ``(elements,
    rows)`` of the tensor mode ``n``'s SVD read.
    """
    spans.solve += 1
    with spans.span("solve", "solve"):
        norm_x = tensor.norm()
        budget = error_budget_per_mode(norm_x * norm_x, tol, tensor.ndim)
        current, factors, work = tensor, [], []
        for n in range(tensor.ndim):
            work.append((current.size, current.shape[n]))
            if method == "qr":
                with spans.span("tensor_lq", "linalg", n):
                    small = tensor_lq(current, n, counter=counter)
                with spans.span("left_svd_of_triangle", "linalg", n):
                    u, sigma = left_svd_of_triangle(small, counter=counter, mode=n)
            else:
                with spans.span("tensor_gram", "linalg", n):
                    small = tensor_gram(current, n, counter=counter)
                with spans.span("svd_from_gram", "linalg", n):
                    u, sigma = svd_from_gram(small, counter=counter, mode=n)
            with spans.span("choose_rank", "core", n):
                r = choose_rank(sigma, budget)
            u_n = np.ascontiguousarray(u[:, :r])
            factors.append(u_n)
            counter.add(ttm_flops(current.shape, n, r), phase=PHASE_TTM, mode=n)
            with spans.span("ttm", "tensor", n):
                current = ttm(current, u_n, n, transpose=True)
    return current, factors, work


def staged_par_solve(dt, method: str, tol: float, spans: Spans,
                     counter: FlopCounter):
    """Parallel ST-HOSVD as `sthosvd_parallel` composes it.

    Mirrors `par_tensor_qr_svd` / `par_tensor_gram_svd` with the
    replicated SVD strategy.  Collective.  Returns ``(core, factors,
    work)`` with ``work[n]`` the ``(local elements, global rows)`` of
    mode ``n``.
    """
    comm = dt.comm
    spans.solve += 1
    with spans.span("solve", "solve"):
        budget = error_budget_per_mode(dt.norm_squared(), tol, dt.ndim)
        current, factors, work = dt, [], []
        for n in range(dt.ndim):
            rows = current.global_shape[n]
            work.append((current.local.size, rows))
            if method == "qr":
                if current.grid.dims[n] == 1:
                    with spans.span("tensor_lq", "linalg", n):
                        low = tensor_lq(current.local, n, counter=counter)
                else:
                    spans.wait(comm, n)
                    with spans.span("redistribute_unfolding_to_columns", "dist", n):
                        slab = redistribute_unfolding_to_columns(current, n)
                    with spans.span("gelq", "linalg", n):
                        low = gelq(slab, counter=counter, mode=n)
                tri = np.zeros((rows, rows), dtype=current.dtype)
                tri[: low.shape[1], :] = low.T
                spans.wait(comm, n)
                with spans.span("butterfly_tsqr_reduce", "dist", n):
                    tri = butterfly_tsqr_reduce(comm, tri, counter=counter, mode=n)
                with spans.span("left_svd_of_triangle", "linalg", n):
                    u, sigma = left_svd_of_triangle(
                        np.ascontiguousarray(tri.T), counter=counter, mode=n)
            else:
                spans.wait(comm, n)
                with spans.span("par_tensor_gram", "dist", n):
                    gram = par_tensor_gram(current, n, counter=counter)
                with spans.span("svd_from_gram", "linalg", n):
                    u, sigma = svd_from_gram(gram, counter=counter, mode=n)
            with spans.span("choose_rank", "core", n):
                r = choose_rank(sigma, budget)
            u_n = np.ascontiguousarray(u[:, :r])
            factors.append(u_n)
            spans.wait(comm, n)
            with spans.span("par_ttm_truncate", "dist", n):
                current = par_ttm_truncate(current, u_n, n, counter=counter)
    return current, factors, work


def span_sums(rows) -> dict:
    """One rank's spans -> per solve: seconds by span name and attribution.

    ``stage`` sums the staged loop's own spans (children of the solve
    span); ``wire`` sums outermost Communicator calls inside a stage;
    ``wait`` sums the pre-stage barriers.  Communicator calls made
    directly under the solve span (the norm allreduce) stay in the
    residual, with the loop's glue.
    """
    out: dict = {}
    for row in rows:
        name, layer, _mode, _rank, start, end, parent, solve = row
        if layer == "mpi" and parent < 0:
            continue  # the window barriers around a solve belong to none
        acc = out.setdefault(solve, {
            "solve": 0.0, "stage": 0.0, "wire": 0.0, "wait": 0.0,
            "by_name": {}, "wire_by_name": {}})
        dur = end - start
        if layer == "solve":
            acc["solve"] = dur
        elif layer == "wait":
            acc["wait"] += dur
        elif layer == "mpi":
            if parent >= 0 and rows[parent][1] in STAGE_LAYERS:
                acc["wire"] += dur
                stage = rows[parent][0]
                acc["wire_by_name"][stage] = acc["wire_by_name"].get(stage, 0.0) + dur
        elif layer in STAGE_LAYERS:
            acc["stage"] += dur
            acc["by_name"][name] = acc["by_name"].get(name, 0.0) + dur
    return out
