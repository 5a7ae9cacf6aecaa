"""Static-analysis throughput: ``repro verify`` over the repository.

Times the whole-program verifier over the repository's own source trees
— project load (parsing, call graph, taint fixpoint) and symbolic
execution (per-rank interpretation, trace matching, the literal-tag
pass) — against ``ast.parse`` of the same files in the same process,
and exits 1 when any ratio exceeds ``LIMIT`` times its reference.  A
ratio to parsing, not a wall time, so the gate moves with the host: a
verifier change that blows up analysis time (a runaway unroll, a
fixpoint that stops converging) fails CI as a perf regression, not as a
mystery timeout, and a slow runner does not.

The exact counters (entries analyzed, incomplete traces, findings) are
asserted by ``tests/sanitize/test_verify.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_verify.py [--reps N]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sanitize.callgraph import load_project  # noqa: E402
from repro.sanitize.verify import verify_project  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOTS = (os.path.join(REPO, "src", "repro"), os.path.join(REPO, "examples"))
WORLD_SIZE = 2

# Best-of-5 seconds over best-of-5 ``ast.parse`` seconds of the corpus:
# the lowest of 20 runs on a 2-core VM, whose medians read 5.65, 0.18
# and 5.83 (EXPERIMENTS.md, "One static tier").
REFERENCE = {"load": 4.3, "exec": 0.12, "total": 4.4}
LIMIT = 3.0


def _corpus() -> list[str]:
    files = []
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith(".py")]
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5,
                    help="timing repetitions (best-of)")
    args = ap.parse_args(argv)

    files = _corpus()
    parse_times, load_times, exec_times = [], [], []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        for path in files:
            with open(path, encoding="utf-8") as f:
                ast.parse(f.read(), filename=path)
        t1 = time.perf_counter()
        project = load_project(ROOTS)
        t2 = time.perf_counter()
        result = verify_project(project, world_size=WORLD_SIZE)
        parse_times.append(t1 - t0)
        load_times.append(t2 - t1)
        exec_times.append(time.perf_counter() - t2)

    incomplete = sum(1 for r in result.reports if not r.complete)
    print(f"corpus: {len(files)} files, {len(project.functions)} functions, "
          f"{result.functions_analyzed} drivers ({incomplete} incomplete); "
          f"findings: {len(result.findings)}")
    parse = min(parse_times)
    best = {"load": min(load_times), "exec": min(exec_times)}
    best["total"] = best["load"] + best["exec"]
    print(f"parse  {parse:8.4f} s")
    slow = []
    for name, seconds in best.items():
        ratio = seconds / parse
        print(f"{name:<6} {seconds:8.4f} s  {ratio:6.3f}x parse "
              f"({ratio / REFERENCE[name]:4.2f} of reference "
              f"{REFERENCE[name]}x)")
        if ratio > LIMIT * REFERENCE[name]:
            slow.append(name)
    if slow:
        print(f"over {LIMIT}x reference: {', '.join(slow)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
