#!/usr/bin/env python3
"""A/B a change against its parent with the repo's benchmark, in pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2]
                                [--pairs N] [--seconds S] [--seed SEED]

PARENT and CHANGE are two checkouts (``git clone`` the parent commit
somewhere; CHANGE may be this working tree).  Per workload it runs N
pairs of ``bench/run.py --workload W --seed SEED+i --seconds S`` — each
side with *its own* ``bench/`` and ``src/`` — alternating which side
goes first, and prints every end-to-end metric of ``BENCHMARK.json``
pair by pair, then per side the median [quartiles], the pairs the
change won, and whether the medians differ by more than the parent's
interquartile distance (the rule of the choosing-metrics guide, Sec. 8).
Pair ``i`` uses one seed on both sides, so ``compression_ratio`` can be
compared seed by seed.

Both trees are byte-compiled first: this sandbox sets
``PYTHONDONTWRITEBYTECODE``, so a fresh clone or an edited tree has no
``.pyc`` files and every worker process would recompile ``repro`` —
10–70 ms of ``setup_s`` that belongs to neither side.

Run nothing else meanwhile: the hosts have two cores and P = 2 workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` invocation -> {metric: value} (+ failed/attempted)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(failed=result["failed"], attempted=result["attempted"])
    return values


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(workload: str, metrics: list, parent: list, change: list) -> None:
    print(f"\n== {workload}: {len(parent)} pairs (parent -> change)")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        print(f"{name} [{m['unit']}, {m['better']} is better]")
        print("  pairs: " + "  ".join(f"{x:.6g}->{y:.6g}" for x, y in zip(a, b)))
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        gain = (a2 - b2) if lower else (b2 - a2)
        print(f"  parent {a2:.6g} [{a1:.6g}, {a3:.6g}]   change {b2:.6g} "
              f"[{b1:.6g}, {b3:.6g}]   ratio {b2 / a2 if a2 else float('nan'):.3f}")
        print(f"  change wins {wins}/{len(a)} (ties {ties}); medians differ by "
              f"{'more' if gain > a3 - a1 else 'no more'} than the parent's IQR"
              f" ({gain:+.4g} vs {a3 - a1:.4g})")
    for side, rows in (("parent", parent), ("change", change)):
        print(f"{side}: failed {sum(r['failed'] for r in rows)}"
              f"/{sum(r['attempted'] for r in rows)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=2021, help="seed of pair 0")
    args = parser.parse_args(argv)

    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or float(contract["run_seconds"])
    for checkout in (args.parent, args.change):
        for sub in ("src", "bench"):
            if not compileall.compile_dir(str(checkout / sub), quiet=1):
                raise SystemExit(f"{checkout / sub} does not compile")
    for workload in args.workload:
        parent, change = [], []
        for i in range(args.pairs):
            sides = [(args.parent, parent), (args.change, change)]
            for checkout, rows in sides if i % 2 == 0 else sides[::-1]:
                rows.append(run_once(checkout, workload, args.seed + i, seconds))
                print(f"# {workload} pair {i} {checkout}: "
                      f"solve_s {rows[-1]['solve_s']:.6g}", flush=True)
        report(workload, contract["end_to_end"], parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
