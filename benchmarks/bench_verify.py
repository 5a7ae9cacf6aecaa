"""Static-analysis throughput: lint + whole-program verify.

Times the two static tiers over the repository's own source trees —
the per-function AST lint and the interprocedural verifier (project
load, call-graph + taint fixpoint, per-rank symbolic execution, trace
matching) — prints the best-of-reps wall times beside their reference,
and exits 1 when any of them exceeds ``LIMIT`` times it, so a verifier
change that blows up interpretation time (a runaway unroll, a fixpoint
that stops converging) fails CI as a perf regression, not as a mystery
timeout.

The references are one-core wall times taken when the verifier landed;
the exact counters (entries analyzed, incomplete traces, findings) are
asserted by ``tests/sanitize/test_verify.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_verify.py [--reps N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sanitize import lint_paths  # noqa: E402
from repro.sanitize.callgraph import load_project  # noqa: E402
from repro.sanitize.verify import verify_project  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOTS = (os.path.join(REPO, "src", "repro"), os.path.join(REPO, "examples"))
WORLD_SIZE = 2

# Best-of-3 wall seconds on one core when the verifier landed.
REFERENCE_S = {"lint": 0.5825, "load": 0.9673, "exec": 0.0198, "total": 0.9871}
LIMIT = 3.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3,
                    help="timing repetitions (best-of)")
    args = ap.parse_args(argv)

    lint_times, load_times, exec_times = [], [], []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        lint_findings = len(lint_paths(ROOTS))
        lint_times.append(time.perf_counter() - t0)
    for _ in range(args.reps):
        t0 = time.perf_counter()
        project = load_project(ROOTS)
        t1 = time.perf_counter()
        result = verify_project(project, world_size=WORLD_SIZE)
        load_times.append(t1 - t0)
        exec_times.append(time.perf_counter() - t1)

    incomplete = sum(1 for r in result.reports if not r.complete)
    print(f"corpus: {len(project.functions)} functions, "
          f"{result.functions_analyzed} drivers ({incomplete} incomplete); "
          f"findings: lint {lint_findings}, verify {len(result.findings)}")
    best = {"lint": min(lint_times), "load": min(load_times),
            "exec": min(exec_times)}
    best["total"] = best["load"] + best["exec"]
    slow = []
    for name, seconds in best.items():
        ratio = seconds / REFERENCE_S[name]
        print(f"{name:<6} {seconds:8.4f} s  {ratio:5.2f}x reference "
              f"({REFERENCE_S[name]} s)")
        if ratio > LIMIT:
            slow.append(name)
    if slow:
        print(f"over {LIMIT}x reference: {', '.join(slow)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
