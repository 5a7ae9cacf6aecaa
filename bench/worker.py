"""One round of one workload, in a fresh process (started by run.py).

A round loads the generated input, warms up, then issues timed solves
back to back until its time budget is used, with the plain NumPy
reference interleaved in the same process (one reference per two
solves; per solve where the solve is ten times the reference, and on the
parallel workloads, where the references bracket each world).  Fresh processes are required, not cosmetic: the memory-bound
Gram solve sits at one level within a process but shifts by ~10%
between processes, so one long process gives a tight and wrong number.

Reads a JSON spec, writes a JSON result; prints nothing on success.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPS = 5
IMPORT_REPS = 3
CHECK_S_PER_ELEMENT = 7e-8  # reconstruction + error norm after the timed loop


def pin_blas_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for descendants, MiB.

    Own peak from VmHWM, which starts afresh at exec; ru_maxrss does not
    (it would carry run.py's peak while generating the input).
    """
    status = Path("/proc/self/status").read_text()
    own_kib = int(status.split("VmHWM:")[1].split()[0])
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def time_imports(reps: int) -> list:
    """Seconds `import repro` takes, ``reps`` times over.

    One import per process would leave `setup_s` a single sample per
    round, so the package's modules are dropped and imported again;
    NumPy and SciPy stay loaded and are not part of the time.
    """
    import importlib

    seconds = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        seconds.append(timed(lambda: importlib.import_module("repro"))[0])
    return seconds


def timed(call):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def checked_result(x64, core, factors, ranks, failures: list) -> dict:
    """Accuracy check of a round's last solve; a miss is appended to
    ``failures``."""
    from reference import compression_ratio, rel_error
    from workloads import TOL

    err = rel_error(x64, core, factors)
    if not err <= TOL:
        failures.append(f"rel_error {err:.3e} > tol {TOL:g}")
    return {"rel_error": err, "ranks": list(ranks),
            "compression_ratio": compression_ratio(x64.shape, core.shape, factors)}


def e2e_seq(spec, wl, import_s, started):
    import numpy as np
    import repro
    from repro.tensor.dense import DenseTensor
    from reference import reference_sthosvd
    from workloads import TOL

    x64 = np.load(spec["input"])
    dtype = np.dtype(wl["dtype"])
    setups = []
    for _ in range(SETUP_REPS):
        seconds, tensor = timed(lambda: DenseTensor(x64).astype(dtype))
        setups.append(import_s + seconds)
    x_ref = np.ascontiguousarray(x64)
    if dtype != x64.dtype:
        x64 = None  # reloaded for the check; keeps harness arrays out of peak RSS

    def solve():
        return repro.sthosvd(tensor, tol=TOL, method=wl["method"], precision=dtype)

    def reference():
        return reference_sthosvd(x_ref, TOL)

    solve()
    reference()
    check_s = CHECK_S_PER_ELEMENT * x_ref.size
    solves, refs, ratios, failures, attempted, last = [], [], [], [], 0, None
    longest, since_ref = 0.0, []
    while True:
        iter_start = time.perf_counter()
        attempted += 1
        try:
            seconds, last = timed(solve)
            solves.append(seconds)
            since_ref.append(seconds)
        except Exception as exc:  # noqa: BLE001 - a failed solve is a count
            failures.append(f"solve {attempted}: {exc!r}")
        if attempted % wl["solves_per_ref"] == 0:
            refs.append(timed(reference)[0])
            if since_ref:
                # Paired with the solves just before it, so that a shift of
                # the host's speed hits both sides of the ratio.
                ratios.append(statistics.median(since_ref) / refs[-1])
            since_ref = []
        now = time.perf_counter()
        longest = max(longest, now - iter_start)
        if attempted >= 2 and (
                spec["quick"]
                or now - started + longest + check_s > spec["budget_s"]):
            break
    result = {"rel_error": None, "compression_ratio": None, "ranks": None,
              "peak_rss_mb": peak_rss_mb()}
    if last is not None:
        result.update(checked_result(
            np.load(spec["input"]) if x64 is None else x64,
            last.tucker.core.data, last.tucker.factors, last.ranks, failures))
    result.update(setup=setups, solve=solves, ref=refs, ratio=ratios,
                  attempted=attempted, failed=min(len(failures), attempted),
                  failures=failures)
    return result


def par_world(comm, xw, method, tol, n_solves):
    """SPMD program of the parallel workloads: one warm-up solve, then
    ``n_solves`` solves timed barrier to barrier inside the live world."""
    from repro.core.sthosvd_parallel import sthosvd_parallel
    from repro.dist import DistributedTensor, GridComms, ProcessorGrid
    from reference import digest

    comms = GridComms(comm, ProcessorGrid.for_size(comm.size, xw.ndim))
    dt = DistributedTensor.from_full(comms, xw)
    windows, ranks, digests = [], [], []
    for _ in range(n_solves + 1):
        comm.barrier()
        t = time.perf_counter()
        res = sthosvd_parallel(dt, tol=tol, method=method)
        comm.barrier()
        windows.append(time.perf_counter() - t)
        ranks.append(tuple(res.ranks))
        digests.append(digest(res.factors))
    core = res.core.gather()
    out = {"windows": windows, "ranks": ranks, "digests": digests}
    if comm.rank == 0:
        out["core"] = core.data
        out["factors"] = list(res.factors)
    return out


def e2e_par(spec, wl, import_s, started):
    import numpy as np
    import repro
    from repro.mpi import run_spmd
    from repro.tensor.dense import DenseTensor
    from reference import reference_sthosvd
    from workloads import NPROCS, RECV_TIMEOUT, TOL

    x64 = np.load(spec["input"])
    xw = np.asfortranarray(x64, dtype=wl["dtype"])
    x_ref = np.ascontiguousarray(x64)
    expected = tuple(repro.sthosvd(DenseTensor(xw), tol=TOL, method=wl["method"]).ranks)
    reference_sthosvd(x_ref, TOL)

    per_world = 2 if spec["quick"] else wl["solves_per_world"]
    check_s = CHECK_S_PER_ELEMENT * x_ref.size

    def time_references(count):
        return [timed(lambda: reference_sthosvd(x_ref, TOL))[0] for _ in range(count)]

    setups, solves, refs, ratios, failures, attempted, last = [], [], [], [], [], 0, None
    while True:
        world_start = time.perf_counter()
        attempted += per_world
        n_before = len(solves)
        # The reference cannot run inside the world, so it brackets it:
        # as many references as solves, half before and half after.
        world_refs = time_references(per_world // 2)
        launch = time.perf_counter()
        try:
            res = run_spmd(par_world, NPROCS, xw, wl["method"], TOL, per_world,
                           backend=wl["backend"], recv_timeout=RECV_TIMEOUT)
            wall = time.perf_counter() - launch
            vals = res.values
            windows = [max(v["windows"][k] for v in vals) for k in range(per_world + 1)]
            setups.append(import_s + wall - sum(windows))
            for k in range(1, per_world + 1):
                if any(v["ranks"][k] != expected for v in vals):
                    failures.append(f"ranks {vals[0]['ranks'][k]} != sequential {expected}")
                elif len({v["digests"][k] for v in vals}) != 1:
                    failures.append("factors differ bitwise across ranks")
                else:
                    solves.append(windows[k])
            last = vals[0]
        except Exception as exc:  # noqa: BLE001 - a failed world never aborts the set
            failures.extend([f"world failed: {exc!r}"] * per_world)
        world_refs += time_references(per_world - per_world // 2)
        refs.extend(world_refs)
        if len(solves) > n_before:
            ratios.append(statistics.median(solves[n_before:])
                          / statistics.median(world_refs))
        now = time.perf_counter()
        if spec["quick"] or (
                now - started + (now - world_start) + check_s > spec["budget_s"]):
            break
    result = {"rel_error": None, "compression_ratio": None, "ranks": None,
              "peak_rss_mb": peak_rss_mb()}
    if last is not None:
        result.update(checked_result(
            x64, last["core"], last["factors"], last["ranks"][-1], failures))
    result.update(setup=setups, solve=solves, ref=refs, ratio=ratios,
                  attempted=attempted, failed=min(len(failures), attempted),
                  failures=failures)
    return result


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())

    pin_blas_threads()
    bench_dir = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench_dir.parent / "src"), str(bench_dir)]
    import numpy  # noqa: F401 - the benchmark's own imports, not set-up cost
    import scipy.linalg  # noqa: F401
    import_s = statistics.median(time_imports(IMPORT_REPS))

    from workloads import WORKLOADS
    wl = WORKLOADS[spec["workload"]]
    if spec["mode"] == "trace":
        import traced
        result = (traced.trace_seq if wl["kind"] == "seq" else traced.trace_par)(spec, wl)
    else:
        result = (e2e_seq if wl["kind"] == "seq" else e2e_par)(spec, wl, import_s, started)
    result["import_s"] = import_s
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
