"""Layer probes of the traced run: mpi calls, transports, hooks, kernels.

Each probe calls public functions of one layer and times them from
outside.  Every world runs under try/except with a bounded
``recv_timeout``; a failed world is counted against the attempts of the
backend it probed and never aborts the run.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg.lapack as lapack

from repro.linalg import gelq, tpqrt
from repro.mpi import CommTrace, run_spmd
from repro.obs import FlightRecorder, Tracer
from repro.tensor.dense import DenseTensor

from stats import median
from workloads import NPROCS, RECV_TIMEOUT

MIB = 1 << 20
# A lost message on `procs` (ROADMAP item 1) blocks its partner until
# recv_timeout; ladder worlds move 8 B and 1 MiB, so 5 s is already a
# failure and keeps ten attempts inside the traced run's time.
LADDER_RECV_TIMEOUT = 5.0
LADDER_WORLDS = 10
# `procs` last: its failures take longest, and the ladder stops at a deadline.
BACKENDS = ("threads", "sockets", "procs")
HOOKS = {
    "none": lambda: {},
    "comm_trace": lambda: {"comm_trace": CommTrace()},
    "tracer": lambda: {"tracer": Tracer()},
    "sanitize": lambda: {"sanitize": True},
    "resilience": lambda: {"resilience": True},
    "recorder": lambda: {"recorder": FlightRecorder()},
}


def _pingpong(comm, payload, iters: int) -> float:
    """Seconds per round trip between ranks 0 and 1 (collective)."""
    other = 1 - comm.rank

    def trips(n):
        for _ in range(n):
            if comm.rank == 0:
                comm.send(payload, other, tag=1)
                comm.recv(other, tag=2)
            else:
                comm.recv(other, tag=1)
                comm.send(payload, other, tag=2)

    trips(max(iters // 10, 2))
    comm.barrier()
    start = time.perf_counter()
    trips(iters)
    return (time.perf_counter() - start) / iters


def _repeat(comm, iters: int, call) -> float:
    """Seconds per collective call, after one warm-up call."""
    call()
    comm.barrier()
    start = time.perf_counter()
    for _ in range(iters):
        call()
    return (time.perf_counter() - start) / iters


def in_world_probes(comm, rtt_iters: int = 100, bulk_iters: int = 10) -> dict:
    """The four mpi call probes, in the caller's world and backend."""
    other = 1 - comm.rank
    mib = np.zeros(MIB // 8)
    # alltoallv: 8 MiB of send buffer per rank in unequal pieces, frozen
    # and moved like dist.redistribute_unfolding_to_columns stages them.
    sizes = (3, 5) if comm.rank == 0 else (5, 3)
    pieces = [np.zeros(k * MIB // 8) for k in sizes]
    for piece in pieces:
        piece.flags.writeable = False
    return {
        "mpi.rtt_8B_us": 1e6 * _pingpong(comm, np.zeros(1), rtt_iters),
        "mpi.sendrecv_1MiB_ms": 1e3 * _repeat(
            comm, bulk_iters, lambda: comm.sendrecv(mib, other, tag=3)),
        "mpi.allreduce_1MiB_ms": 1e3 * _repeat(
            comm, bulk_iters, lambda: comm.allreduce(mib)),
        "mpi.alltoallv_8MiB_ms": 1e3 * _repeat(
            comm, max(bulk_iters // 2, 2),
            lambda: comm.alltoall(pieces, copy=False)),
    }


def _noop_world(comm):
    return comm.rank


def _ladder_world(comm, rtt_iters, bulk_iters):
    mib = np.zeros(MIB // 8)
    return (_pingpong(comm, np.zeros(1), rtt_iters),
            _repeat(comm, bulk_iters, lambda: comm.allreduce(mib)))


def _rtt_world(comm, iters):
    return _pingpong(comm, np.zeros(1), iters)


def transport_ladder(deadline: float, quick: bool = False):
    """Launch, 8 B round trip and 1 MiB allreduce on every backend.

    No new world is started after ``deadline`` (a `time.perf_counter`
    value); `failed_frac` is over the worlds actually attempted, which
    the second return value counts per backend.
    """
    worlds = 2 if quick else LADDER_WORLDS
    out, attempts = {}, {}
    for backend in BACKENDS:
        launch, rtt, allreduce, attempted, failed = [], [], [], 0, 0
        for program, args in ((_noop_world, ()), (_ladder_world, (50, 8))):
            for _ in range(worlds):
                if time.perf_counter() > deadline:
                    break
                attempted += 1
                start = time.perf_counter()
                try:
                    res = run_spmd(program, NPROCS, *args, backend=backend,
                                   recv_timeout=LADDER_RECV_TIMEOUT)
                except Exception:  # noqa: BLE001 - any world failure is a count
                    failed += 1
                    continue
                if program is _noop_world:
                    launch.append(time.perf_counter() - start)
                else:
                    rtt.append(max(v[0] for v in res.values))
                    allreduce.append(max(v[1] for v in res.values))
        prefix = f"mpi.transport.{backend}."
        out[prefix + "launch_ms"] = 1e3 * median(launch) if launch else 0.0
        out[prefix + "rtt_8B_us"] = 1e6 * median(rtt) if rtt else 0.0
        out[prefix + "allreduce_1MiB_ms"] = 1e3 * median(allreduce) if allreduce else 0.0
        out[prefix + "failed_frac"] = failed / attempted if attempted else 0.0
        attempts[backend] = attempted
    return out, attempts


def hook_ladder(quick: bool = False) -> dict:
    """8 B round trip on `threads` with one run_spmd hook on at a time."""
    out = {}
    for hook, kwargs in HOOKS.items():
        try:
            res = run_spmd(_rtt_world, NPROCS, 200 if quick else 2000,
                           backend="threads", recv_timeout=RECV_TIMEOUT, **kwargs())
            out[f"mpi.hook.{hook}.rtt_8B_us"] = 1e6 * max(res.values)
        except Exception:  # noqa: BLE001 - reported as not measured
            out[f"mpi.hook.{hook}.rtt_8B_us"] = 0.0
    return out


def _median_time(call, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return median(times)


def _net_time(call, copies, reps: int) -> float:
    """Median time of ``call(*copies())`` less that of ``copies()`` alone,
    for kernels that destroy their arguments."""
    gross = _median_time(lambda: call(*copies()), reps)
    return max(gross - _median_time(copies, reps), 1e-9)


def kernel_vs_lapack(xw: np.ndarray) -> dict:
    """Our `gelq`/`tpqrt` over the raw LAPACK routine on the same data.

    `gelq` on the exact mode-0 unfolding; `tpqrt` on one mode-1 chunk
    shaped as `tensor_lq` shapes it.  The raw routines work in place on
    Fortran-ordered copies with an optimal workspace; the copies are
    timed separately and subtracted on both sides.
    """
    prefix = "s" if xw.dtype == np.float32 else "d"
    geqrf = getattr(lapack, prefix + "geqrf")
    raw_tpqrt = getattr(lapack, prefix + "tpqrt")
    tensor = DenseTensor(xw)

    unfolding = tensor.unfold(0)
    tall = np.asfortranarray(unfolding.T)
    lwork = int(geqrf(tall, lwork=-1)[2][0].real)
    ours = _median_time(lambda: gelq(unfolding), 3)
    raw = _net_time(lambda a: geqrf(a, lwork=lwork, overwrite_a=1),
                    lambda: (tall.copy(order="F"),), 3)

    rows = tensor.shape[1]
    nblocks = tensor.num_column_blocks(1)
    bcols = tensor.size // (rows * nblocks)
    take = min(nblocks, max(1, -(-max(rows, 512) // bcols)))
    run = tensor.column_block_range(1, 0, take)
    chunk = run.transpose(0, 2, 1).copy().reshape(take * bcols, rows)
    tri = np.ascontiguousarray(np.triu(geqrf(np.asfortranarray(chunk))[0][:rows, :]))
    ours_tp = _net_time(lambda r, b: tpqrt(r, b, structure="rect"),
                        lambda: (tri.copy(), chunk.copy()), 9)
    raw_tp = _net_time(
        lambda r, b: raw_tpqrt(0, min(32, rows), r, b, overwrite_a=1, overwrite_b=1),
        lambda: (tri.copy(order="F"), chunk.copy(order="F")), 9)
    return {
        "linalg.gelq_vs_lapack": ours / raw,
        "linalg.tpqrt_vs_lapack": ours_tp / raw_tp,
    }


def gemm_peak() -> dict:
    """Single-thread 1024^3 matmul rate: the context the kernel rates
    are read against (no bandwidth roofline, see README)."""
    out = {}
    for name, dtype in (("f32", np.float32), ("f64", np.float64)):
        a = np.ones((1024, 1024), dtype=dtype)
        b = np.ones((1024, 1024), dtype=dtype)
        np.matmul(a, b)
        best = min(_median_time(lambda: np.matmul(a, b), 1) for _ in range(3))
        out[f"perf.gemm_gflops_{name}"] = 2 * 1024**3 / best / 1e9
    return out
