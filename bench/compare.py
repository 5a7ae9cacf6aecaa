#!/usr/bin/env python3
"""Compare two sets written by `bench/run.py -o`: `compare.py A.json B.json`.

One row per end-to-end metric and workload: both medians, both spreads
(interquartile range of the round medians over the median), the ratio
B/A, and a verdict against the metric's bound in BENCHMARK.json:

    ok          B is no worse than A by more than the bound
    regress     B is worse than A by more than the bound
    unresolved  B reads worse than the bound, but a spread exceeds the
                bound and the two sets' rounds overlap, so the runs do
                not resolve a change of that size

Exit code 1 if any row regresses.  Per-layer metrics, when both sets
carry them, are listed after with their ratio and no verdict: they have
no bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    ratio = b["value"] / a["value"] if a["value"] else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by <= bound:
        return ratio, "ok"
    ra, rb = a.get("rounds") or [a["value"]], b.get("rounds") or [b["value"]]
    overlap = min(ra) <= max(rb) and min(rb) <= max(ra)
    noisy = max(a["spread"], b["spread"]) > bound
    return ratio, "unresolved" if noisy and overlap else "regress"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    set_a, set_b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A: {argv[0]}  commit {set_a['header']['commit']}  seed {set_a['header']['seed']}")
    print(f"B: {argv[1]}  commit {set_b['header']['commit']}  seed {set_b['header']['seed']}")
    print(f"{'workload':<22}{'metric':<20}{'A':>12}{'spread':>8}{'B':>12}{'spread':>8}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    regressed = False
    for name, res_a in set_a["end_to_end"].items():
        res_b = set_b["end_to_end"].get(name)
        if res_b is None:
            continue
        for metric in contract["end_to_end"]:
            a = res_a["metrics"].get(metric["name"])
            b = res_b["metrics"].get(metric["name"])
            if a is None or b is None:
                print(f"{name:<22}{metric['name']:<20}  missing in "
                      f"{'A' if a is None else 'B'}  regress")
                regressed = True
                continue
            ratio, word = verdict(a, b, metric["better"], metric["bound"])
            regressed |= word == "regress"
            print(f"{name:<22}{metric['name']:<20}{a['value']:>12.5g}"
                  f"{100 * a['spread']:>7.1f}%{b['value']:>12.5g}"
                  f"{100 * b['spread']:>7.1f}%{ratio:>8.3f}"
                  f"{100 * metric['bound']:>6.0f}%  {word}")
        fa, fb = (f"{r['failed']}/{r['attempted']}" for r in (res_a, res_b))
        word = "ok" if res_b["failed"] == 0 else "regress"
        regressed |= word == "regress"
        print(f"{name:<22}{'failed/attempted':<20}{fa:>12}{'':>8}{fb:>12}{'':>8}"
              f"{'':>8}{'0':>7}  {word}")
    for name, res_a in set_a.get("per_layer", {}).items():
        res_b = set_b.get("per_layer", {}).get(name)
        if res_b is None:
            continue
        print(f"\n{name}: per-layer metrics (no bound)")
        for metric, va in sorted(res_a["metrics"].items()):
            vb = res_b["metrics"].get(metric)
            if vb is None:
                continue
            ratio = f"{vb / va:>8.3f}" if va else f"{'-':>8}"
            print(f"  {metric:<40}{va:>14.6g}{vb:>14.6g}{ratio}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
