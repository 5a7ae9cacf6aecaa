#!/usr/bin/env python3
"""The repo's benchmark: time-to-tolerance on four workloads, layer by layer.

    python bench/run.py [--seed N] [--trace] [--quick] [-o FILE]
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload every workload runs, rounds interleaved round-robin,
and the full report is printed (and written with -o).  With --workload
the last line of standard output is one JSON object: the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) of that
workload, as BENCHMARK.json names them.

Method: closed loop, one client.  Each workload runs as ROUNDS rounds,
each a fresh subprocess (worker.py) that generates nothing: the input
tensor is made here from --seed and handed over as an ndarray file.  A
metric's value is the median over rounds of the per-round median; its
spread is the interquartile range of the round medians over that
median.  BLAS is pinned to one thread and parallel workloads use two
ranks.  See README.md for the metrics and why each workload is here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import pin_blas_threads  # noqa: E402
from stats import median, spread, tail  # noqa: E402
from workloads import NPROCS, TOL, WORKLOADS  # noqa: E402

ROUNDS = 5
RUN_LIMIT_S = 165.0  # the driver allows 180 s per invocation
TRACE_TIMEOUT_S = 120.0


def header(args, nproc: int, names) -> dict:
    import numpy as np
    import scipy
    from repro.mpi import CollectiveTuning
    from repro.mpi.transport.net import (
        DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LIVENESS_TIMEOUT)

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit, "nproc": nproc, "blas_threads": 1,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "seed": args.seed, "tol": TOL, "rounds": 1 if args.quick else ROUNDS,
        "seconds_per_workload": args.seconds, "quick": args.quick,
        "workloads": list(names), "nprocs": NPROCS,
        "transport": {
            "REPRO_SPMD_BACKEND": os.environ.get("REPRO_SPMD_BACKEND"),
            "REPRO_SOCKETS_HEARTBEAT": float(os.environ.get(
                "REPRO_SOCKETS_HEARTBEAT", DEFAULT_HEARTBEAT_INTERVAL)),
            "REPRO_SOCKETS_LIVENESS": float(os.environ.get(
                "REPRO_SOCKETS_LIVENESS", DEFAULT_LIVENESS_TIMEOUT)),
            "CollectiveTuning": vars(CollectiveTuning()),
        },
    }


def generate_inputs(names, seed: int, scratch: Path):
    """One float64 tensor file per distinct shape -> (paths, seconds)."""
    import numpy as np
    from repro.data.applications import hcci_surrogate

    paths, seconds = {}, {}
    for shape in {WORKLOADS[n]["shape"] for n in names}:
        start = time.perf_counter()
        data = hcci_surrogate(shape, seed=seed).data
        seconds[shape] = time.perf_counter() - start
        paths[shape] = scratch / f"x-{'x'.join(map(str, shape))}.npy"
        np.save(paths[shape], data)
    return paths, seconds


def launch_round(spec: dict, scratch: Path, tag: str, timeout: float) -> dict:
    """Run worker.py in its own session; always reap its whole group."""
    spec_path, out_path = scratch / f"{tag}.spec.json", scratch / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"),
         "--spec", str(spec_path), "--out", str(out_path)],
        stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code == 0 and out_path.is_file():
        return json.loads(out_path.read_text())
    return {"error": f"round {tag} ended with {code}"}


def aggregate(name: str, rounds: list) -> dict:
    """End-to-end metrics of one workload from its rounds' raw samples.

    Times are host-calibrated: a round's times are divided by its host
    factor, the round's median reference time over the workload's nominal
    reference time.  The host this runs on shifts speed by tens of percent
    for seconds to minutes; the reference, timed in the same process
    between the solves, shifts with it (README, "Host calibration").
    """
    wl = WORKLOADS[name]
    elements = math.prod(wl["shape"])
    good = [r for r in rounds if "error" not in r and r["solve"] and r["ratio"]
            and r["rel_error"] is not None]
    attempted = sum(r.get("attempted", 1) for r in rounds)
    failed = sum(r.get("failed", 1) for r in rounds)
    failures = [f for r in rounds for f in r.get("failures", [r.get("error")])]
    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "rounds": len(rounds), "metrics": {}}
    if not good:
        return out
    host = [median(r["ref"]) / wl["ref_nominal_s"] for r in good]
    solve = [median(r["solve"]) / h for r, h in zip(good, host)]
    per_round = {
        "setup_s": [median(r["setup"]) / h for r, h in zip(good, host)],
        "solve_s": solve,
        "ref_ratio": [median(r["ratio"]) for r in good],
        "throughput_melem_s": [elements / s / 1e6 for s in solve],
        "compression_ratio": [r["compression_ratio"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        # Reported, not in BENCHMARK.json (README says why):
        "rel_error": [r["rel_error"] for r in good],
        "solve_tail_s": [max(r["solve"]) / h for r, h in zip(good, host)],
        "raw_solve_s": [median(r["solve"]) for r in good],
        "host_factor": host,
    }
    for metric, values in per_round.items():
        out["metrics"][metric] = {
            "value": median(values), "spread": spread(values), "rounds": values}
    samples = [s / h for r, h in zip(good, host) for s in r["solve"]]
    value, percentile, n = tail(samples)
    # Pooled over rounds; its spread is over the rounds' slowest solves.
    out["metrics"]["solve_tail_s"].update(value=value, percentile=percentile)
    out["metrics"]["failed_frac"] = {
        "value": failed / attempted, "spread": 0.0, "rounds": []}
    out.update(samples=n, refs=sum(len(r["ref"]) for r in good),
               ranks=good[-1]["ranks"],
               raw=[{k: r[k] for k in ("setup", "solve", "ref", "ratio")} for r in good])
    return out


def run_e2e(names, inputs, args, scratch, measure_s: float, deadline: float) -> dict:
    rounds = {n: [] for n in names}
    count = 1 if args.quick else ROUNDS
    budget = measure_s / count
    for i in range(count):
        for name in names:
            if time.perf_counter() + budget > deadline:
                rounds[name].append({"error": "run time limit reached"})
                continue
            spec = {"workload": name, "mode": "e2e", "quick": args.quick,
                    "input": str(inputs[WORKLOADS[name]["shape"]]),
                    "budget_s": budget, "scratch": str(scratch)}
            rounds[name].append(launch_round(
                spec, scratch, f"{name}.{i}", budget + 60.0))
    return {n: aggregate(n, rounds[n]) for n in names}


def run_traces(names, inputs, gen_s, args, scratch) -> dict:
    out = {}
    for name in names:
        shape = WORKLOADS[name]["shape"]
        spec = {"workload": name, "mode": "trace", "quick": args.quick,
                "input": str(inputs[shape]), "scratch": str(scratch)}
        res = launch_round(spec, scratch, f"{name}.trace", TRACE_TIMEOUT_S)
        if "error" in res:
            res = {"metrics": {}, "spans": [], "attempted": 1, "failed": 1,
                   "failures": [res["error"]], "info": {}}
        res["metrics"]["data.gen_s"] = gen_s[shape]
        # Spans stay in memory until the run ends, then go to one file.
        trace_path = BENCH_DIR / "out" / f"trace-{name}.json"
        trace_path.write_text(json.dumps({
            "workload": name, "seed": args.seed,
            "columns": ["name", "layer", "mode", "rank", "start", "end",
                        "parent", "solve"],
            "spans": res.pop("spans")}))
        out[name] = res
    return out


def check_schema(contract: dict, e2e: dict, traces: dict) -> list:
    """Every contract metric present and finite; nothing unnamed emitted."""
    problems = []
    want_e2e = {m["name"] for m in contract["end_to_end"]}
    want_layer = {m["name"] for m in contract["per_layer"]}
    for name, res in e2e.items():
        for metric in want_e2e:
            value = res["metrics"].get(metric, {}).get("value")
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"{name}: end-to-end metric {metric} is {value}")
    for name, res in traces.items():
        for metric, value in res["metrics"].items():
            if metric not in want_layer:
                problems.append(f"{name}: {metric} is not in BENCHMARK.json")
            elif not math.isfinite(value):
                problems.append(f"{name}: per-layer metric {metric} is {value}")
    if len(traces) == len(WORKLOADS):
        seen = {m for res in traces.values() for m in res["metrics"]}
        problems += [f"per-layer metric {m} measured on no workload"
                     for m in sorted(want_layer - seen)]
    return problems


def print_report(report: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update(failed_frac="ratio", rel_error="ratio", solve_tail_s="s",
                 raw_solve_s="s", host_factor="ratio")
    head = report["header"]
    print(f"# commit {head['commit']}  nproc {head['nproc']}  BLAS threads "
          f"{head['blas_threads']}  numpy {head['numpy']}  scipy {head['scipy']}  "
          f"{head['blas']}")
    print(f"# seed {head['seed']}  tol {head['tol']}  rounds {head['rounds']}  "
          f"seconds/workload {head['seconds_per_workload']}  transport "
          f"{json.dumps(head['transport'])}")
    for name, res in report["end_to_end"].items():
        print(f"\n== {name}: {res.get('samples', 0)} timed solves + "
              f"{res.get('refs', 0)} references in {res['rounds']} rounds, "
              f"ranks {res.get('ranks')}, failed {res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            note = f"  (p{m['percentile']:.0f} of pooled samples)" if "percentile" in m else ""
            print(f"{name}  {metric:<20} {m['value']:.6g} {units[metric]}"
                  f"  spread {100 * m['spread']:.1f}%{note}")
        for failure in res["failures"][:5]:
            print(f"  FAILED: {failure}")
    for name, res in report["per_layer"].items():
        print(f"\n== {name} traced: failed {res['failed']}/{res['attempted']}  "
              f"{json.dumps(res['info'])}")
        for metric in sorted(res["metrics"]):
            print(f"{name}  {metric:<38} {res['metrics'][metric]:.6g} {units.get(metric, '?')}")
        for failure in res["failures"][:5]:
            print(f"  FAILED: {failure}")
    for problem in report["problems"]:
        print(f"SCHEMA: {problem}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced round (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="1 round, 2 solves: validates the output schema")
    parser.add_argument("-o", "--output", help="write the full report as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no src/repro under {ROOT}; run it from a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if nproc < NPROCS:
        print(f"bench/run.py: {NPROCS} ranks need {NPROCS} cores, nproc is {nproc}",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    driver_mode = args.workload is not None

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    scratch = BENCH_DIR / "out" / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        report = {"header": header(args, nproc, names)}
        inputs, gen_s = generate_inputs(names, args.seed, scratch)
        # --seconds covers making the input too, so that a run's wall time
        # does not grow with the generator's; the rounds share what is left.
        measure_s = max(args.seconds - (time.perf_counter() - started), args.seconds / 2)
        # Only a single-workload run has a time limit to keep (the driver's).
        deadline = started + RUN_LIMIT_S if driver_mode else math.inf
        e2e = {} if driver_mode and args.trace else run_e2e(
            names, inputs, args, scratch, measure_s, deadline)
        traces = run_traces(names, inputs, gen_s, args, scratch) if args.trace else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report.update(end_to_end=e2e, per_layer=traces,
                  problems=check_schema(contract, e2e, traces),
                  wall_s=time.perf_counter() - started)
    print_report(report, contract)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1))

    results = list(e2e.values()) + list(traces.values())
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not report["problems"]
    if driver_mode:
        kind = "per_layer" if args.trace else "end_to_end"
        source = traces[args.workload]["metrics"] if args.trace else {
            k: v["value"] for k, v in e2e[args.workload]["metrics"].items()}
        # A per-layer metric this workload's path does not touch reads 0.
        metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in contract[kind]}
        print(json.dumps({
            "correct": correct, "attempted": max(sum(r["attempted"] for r in results), 1),
            "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
