"""The traced round: per-layer metrics of one workload.

Never feeds an end-to-end metric.  The round times a few untraced
driver solves, then the same number of staged solves (staged.py) whose
spans give the per-layer seconds, then the layer probes (probes.py).
The staged loop's core and factors must equal the driver's bit for bit,
otherwise the trace is rejected (counted as a failed solve).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.sthosvd_parallel import sthosvd_parallel
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.faults import DistributedCheckpoint
from repro.instrument import PHASE_GRAM, PHASE_LQ, PHASE_TTM, FlopCounter
from repro.mpi import CommTrace, run_spmd
from repro.obs import FlightRecorder, Tracer
from repro.tensor.dense import DenseTensor

import probes
from staged import Spans, span_sums, staged_par_solve, staged_seq_solve, traced_communicator
from stats import median
from workloads import NPROCS, RECV_TIMEOUT, TOL

# metric -> (staged span names, subtract the Communicator time inside).
# On the parallel workloads the local syrk and the local TTM run inside
# dist.par_tensor_gram / dist.par_ttm_truncate; their linalg/tensor time
# is that stage less the Communicator time inside it.
STAGE_METRICS = {
    "linalg.lq_s": (("tensor_lq", "gelq"), False),
    "linalg.gram_s": (("tensor_gram", "par_tensor_gram"), True),
    "linalg.smallsvd_s": (("left_svd_of_triangle", "svd_from_gram"), False),
    "tensor.ttm_s": (("ttm", "par_ttm_truncate"), True),
    "dist.redistribute_s": (("redistribute_unfolding_to_columns",), False),
    "dist.tsqr_s": (("butterfly_tsqr_reduce",), False),
    "dist.gram_s": (("par_tensor_gram",), False),
    "dist.ttm_s": (("par_ttm_truncate",), False),
}
LADDER_BUDGET_S = 22.0  # no ladder world starts later than this into the round


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


def _stage_seconds(sums: list) -> dict:
    """Median over one rank's solves of the seconds behind each metric."""
    def seconds(s, names, net):
        total = sum(s["by_name"].get(n, 0.0) for n in names)
        return total - sum(s["wire_by_name"].get(n, 0.0) for n in names) if net else total

    return {metric: median([seconds(s, names, net) for s in sums])
            for metric, (names, net) in STAGE_METRICS.items()}


def _work_metrics(seconds: dict, counter: FlopCounter, work, itemsize: int) -> dict:
    """Exact flop counts (repro.linalg.flops, via the kernels' counter)
    and the rates they give over the measured seconds."""
    def rate(flops, secs):
        return flops / secs / 1e9 if secs > 0 else 0.0

    lq_flops = counter.phase_total(PHASE_LQ)
    gram_flops = counter.phase_total(PHASE_GRAM)
    # Computed, not measured: one pass over each mode's input plus the
    # triangle written; ignores cache misses and staging copies.
    lq_bytes = sum((elements + rows * rows) * itemsize for elements, rows in work)
    return {
        "linalg.lq_flops": float(lq_flops),
        "linalg.lq_gflops": rate(lq_flops, seconds["linalg.lq_s"]),
        "linalg.lq_intensity": lq_flops / lq_bytes,
        "linalg.gram_flops": float(gram_flops),
        "linalg.gram_gflops": rate(gram_flops, seconds["linalg.gram_s"]),
        "tensor.ttm_gflops": rate(counter.phase_total(PHASE_TTM), seconds["tensor.ttm_s"]),
    }


def _timed_solves(solve, n: int):
    """Median wall of ``n`` calls after one warm-up -> (seconds, last result)."""
    solve()
    times, out = [], None
    for _ in range(n):
        t = time.perf_counter()
        out = solve()
        times.append(time.perf_counter() - t)
    return median(times), out


def trace_seq(spec, wl) -> dict:
    n = 2 if spec["quick"] else 5
    x64 = np.load(spec["input"])
    dtype = np.dtype(wl["dtype"])
    tensor = DenseTensor(x64).astype(dtype)

    def driver():
        return repro.sthosvd(tensor, tol=TOL, method=wl["method"], precision=dtype)

    # Untraced and staged solves alternate (see staged_world).
    drv = driver()
    spans, plain, failures, counter, work = Spans(0), [], [], None, None
    for _ in range(n):
        t = time.perf_counter()
        driver()
        plain.append(time.perf_counter() - t)
        counter = FlopCounter()
        core, factors, work = staged_seq_solve(tensor, wl["method"], TOL, spans, counter)
        if not (_same(factors, drv.tucker.factors)
                and _same([core.data], [drv.tucker.core.data])):
            failures.append("staged loop differs bitwise from repro.sthosvd")
    plain_s = median(plain)
    sums = list(span_sums(spans.rows).values())
    staged_s = median([s["solve"] for s in sums])

    metrics = _stage_seconds(sums)
    metrics.update(_work_metrics(metrics, counter, work, dtype.itemsize))
    metrics["core.seq_overhead_s"] = plain_s - median([s["stage"] for s in sums])
    metrics["bench.trace_overhead_frac"] = staged_s / plain_s - 1.0

    # The paper's headline on identical input, both sides in this process.
    other_method, other_dtype = {
        "qr": ("gram", np.float64), "gram": ("qr", np.float32)}[wl["method"]]
    other = DenseTensor(x64).astype(other_dtype)
    other_s, _ = _timed_solves(
        lambda: repro.sthosvd(other, tol=TOL, method=other_method), min(n, 3))
    qr_s, gram_s = (plain_s, other_s) if wl["method"] == "qr" else (other_s, plain_s)
    metrics["paper.qr_f32_over_gram_f64"] = qr_s / gram_s

    metrics.update(probes.kernel_vs_lapack(tensor.data))
    metrics.update(probes.gemm_peak())
    return {"metrics": metrics, "spans": spans.rows, "attempted": 2 * n,
            "failed": len(failures), "failures": failures,
            "info": {"untraced_solve_s": plain_s, "staged_solve_s": staged_s}}


def _window(comm, call):
    comm.barrier()
    t = time.perf_counter()
    out = call()
    comm.barrier()
    return time.perf_counter() - t, out


def _grid_tensor(comm, xw):
    comms = GridComms(comm, ProcessorGrid.for_size(comm.size, xw.ndim))
    return DistributedTensor.from_full(comms, xw)


def driver_world(comm, xw, method, n, ckpt_root=None, comm_trace=None):
    """``n`` driver solves after a warm-up -> barrier-to-barrier windows.

    ``ckpt_root`` turns durable checkpointing on (a fresh directory per
    solve); ``comm_trace`` labels the traffic of the timed solves alone.
    """
    dt = _grid_tensor(comm, xw)
    windows = []
    for k in range(n + 1):
        ckpt = None
        if ckpt_root is not None:
            ckpt = DistributedCheckpoint(name="bench", ckpt_dir=f"{ckpt_root}/{k}")

        def solve():
            if comm_trace is not None and k > 0:
                comm_trace.set_context("solve")
            sthosvd_parallel(dt, tol=TOL, method=method, checkpoint=ckpt)
            if comm_trace is not None:
                comm_trace.set_context(None)

        windows.append(_window(comm, solve)[0])
    return windows[1:]


def staged_world(comm, xw, method, n, quick):
    """Untraced driver solves, staged traced solves, then the mpi probes."""
    dt = _grid_tensor(comm, xw)

    def driver():
        return sthosvd_parallel(dt, tol=TOL, method=method)

    # Untraced and staged solves alternate, so that neither side of
    # bench.trace_overhead_frac and core.par_overhead_s gets the warmer
    # world or the quieter moment.
    warm = Spans(comm.rank)
    _, drv = _window(comm, driver)
    with warm.active():
        _window(comm, lambda: staged_par_solve(dt, method, TOL, warm, FlopCounter()))
    spans, plain, staged, identical, counter, work = Spans(comm.rank), [], [], True, None, None
    for _ in range(n):
        plain.append(_window(comm, driver)[0])
        counter = FlopCounter()
        with spans.active():
            win, (core, factors, work) = _window(
                comm, lambda: staged_par_solve(dt, method, TOL, spans, counter))
        staged.append(win)
        identical &= _same(factors, drv.factors) and _same(
            [core.local.data], [drv.core.local.data])
    return {
        "plain": plain, "staged": staged, "identical": identical,
        "spans": spans.rows, "counter": counter, "work": work,
        "probes": probes.in_world_probes(comm, *((20, 2) if quick else ())),
    }


def _world(program, *args, backend, **hooks):
    return run_spmd(program, NPROCS, *args, backend=backend,
                    recv_timeout=RECV_TIMEOUT, **hooks).values


def _max_median(per_rank_windows) -> float:
    """Median over solves of the per-solve maximum over ranks."""
    return median([max(ws) for ws in zip(*per_rank_windows)])


def trace_par(spec, wl) -> dict:
    n = 2 if spec["quick"] else 5
    started = time.perf_counter()
    backend, method = wl["backend"], wl["method"]
    xw = np.asfortranarray(np.load(spec["input"]), dtype=wl["dtype"])
    failures = []

    with traced_communicator():
        vals = _world(staged_world, xw, method, n, spec["quick"], backend=backend)
    if not all(v["identical"] for v in vals):
        failures.append("staged loop differs bitwise from sthosvd_parallel")
    plain_s = _max_median([v["plain"] for v in vals])
    staged_s = _max_median([v["staged"] for v in vals])

    # Attribution on the slowest rank (the one the other waits for: most
    # time outside the barriers), for its median staged solve, so the
    # four terms sum to that solve exactly.
    per_rank = [list(span_sums(v["spans"]).values()) for v in vals]
    busy = [median([s["solve"] - s["wait"] for s in sums]) for sums in per_rank]
    slowest = max(range(NPROCS), key=lambda r: busy[r])
    pick = sorted(per_rank[slowest], key=lambda s: s["solve"])[(n - 1) // 2]
    kernel = pick["stage"] - pick["wire"]
    residual = pick["solve"] - kernel - pick["wire"] - pick["wait"]

    seconds = [_stage_seconds(sums) for sums in per_rank]
    metrics = dict(seconds[slowest])
    for key in metrics:
        if key.startswith("dist."):
            metrics[key] = max(s[key] for s in seconds)
    metrics.update(_work_metrics(seconds[slowest], vals[slowest]["counter"],
                                 vals[slowest]["work"], xw.dtype.itemsize))
    metrics.update({
        "dist.wait_s": max(median([s["wait"] for s in sums]) for sums in per_rank),
        "dist.imbalance": max(busy) / (sum(busy) / len(busy)),
        # The untraced solve waits inside its collectives where the staged
        # one waits in the barriers, so both come off before the self time.
        "core.par_overhead_s": plain_s - pick["stage"] - pick["wait"],
        "bench.trace_overhead_frac": staged_s / plain_s - 1.0,
        "attr.kernel_s": kernel, "attr.wire_s": pick["wire"],
        "attr.wait_s": pick["wait"], "attr.residual_s": residual,
        "attr.residual_frac": residual / pick["solve"],
    })
    metrics.update({k: max(v["probes"][k] for v in vals) for k in vals[0]["probes"]})

    trace = CommTrace()
    _world(driver_world, xw, method, 1, None, trace, backend=backend, comm_trace=trace)
    metrics.update({
        "mpi.msgs_per_solve": float(trace.total_messages("solve")),
        "mpi.bytes_per_solve": float(trace.total_bytes("solve")),
        "mpi.copied_bytes_per_solve": float(trace.total_copied_bytes("solve")),
        "mpi.moved_bytes_per_solve": float(trace.total_moved_bytes("solve")),
    })
    for name, hook in (("tracer", {"tracer": Tracer()}),
                       ("recorder", {"recorder": FlightRecorder()})):
        on = _world(driver_world, xw, method, n, backend=backend, **hook)
        metrics[f"obs.{name}_on_ratio"] = _max_median(on) / plain_s
    metrics.update(probes.kernel_vs_lapack(xw))
    metrics.update(probes.gemm_peak())

    info = {"untraced_solve_s": plain_s, "staged_solve_s": pick["solve"],
            "slowest_rank": slowest}
    if backend == "threads":
        # Layer numbers that do not depend on the workload are taken once:
        # checkpoint cost and the hook ladder here, the transport ladder
        # on the sockets workload.
        ckpt_root = Path(spec["scratch"]) / "ckpt"
        try:
            on = _world(driver_world, xw, method, n, str(ckpt_root), backend=backend)
            metrics["faults.ckpt_save_s"] = _max_median(on) - plain_s
            metrics["faults.ckpt_bytes"] = float(sum(
                p.stat().st_size for p in (ckpt_root / "1").rglob("*") if p.is_file()))
        finally:
            shutil.rmtree(ckpt_root, ignore_errors=True)
        metrics.update(probes.hook_ladder(spec["quick"]))
    else:
        seq_tensor = DenseTensor(xw)
        seq_s, _ = _timed_solves(
            lambda: repro.sthosvd(seq_tensor, tol=TOL, method=method), min(n, 3))
        metrics["paper.par_qr_speedup_sockets"] = seq_s / plain_s
        ladder, info["ladder_worlds_attempted"] = probes.transport_ladder(
            started + LADDER_BUDGET_S, spec["quick"])
        metrics.update(ladder)
    return {"metrics": metrics, "spans": [row for v in vals for row in v["spans"]],
            "attempted": 2 * n, "failed": len(failures), "failures": failures,
            "info": info}
