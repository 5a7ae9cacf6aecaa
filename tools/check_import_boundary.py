#!/usr/bin/env python3
"""What `import repro` loads, and what it costs beside the whole platform.

`import repro` must execute the sequential stack only (DESIGN.md, "Layers
and the import direction"); the SPMD runtime and everything built on it
load on first use.  This script checks both halves in fresh interpreters
run with ``python -X importtime``:

    python tools/check_import_boundary.py

* no module matching ``FORBIDDEN`` may be imported by ``import numpy,
  scipy.linalg, repro``;
* the time `import repro` takes there may not exceed ``MAX_SHARE`` of the
  time until every export of the platform packages is resolved as well
  (``from repro.mpi import *`` ... — what `import repro` used to execute).
  Both clocks are read in one process, so the share does not depend on
  the host or on how busy it is; the median of ``RUNS`` processes.

``tests/test_import_boundary.py`` asserts the same module list from
``sys.modules``.  Exits 1 on either failure.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The platform: nothing here may be in sys.modules after `import repro`.
FORBIDDEN = re.compile(
    r"repro\.(?:"
    r"(?:mpi|sanitize|perf)(?:\..*)?"
    r"|faults\.(?:plan|injector|network|checkpoint)"
    r"|obs\.(?:metrics|postmortem|telemetry|export|compare)"
    r"|dist\.(?:svd|gram|ttm|tsqr|redistribute|jacobi)"
    r"|core\.(?:sthosvd_parallel|hooi_parallel|hosvd_parallel|ft)"
    r")$"
)
PLATFORM = ("repro.mpi", "repro.dist", "repro.faults", "repro.obs", "repro.core")
PROGRAM = """
import numpy, scipy.linalg, sys, time
start = time.perf_counter()
import repro
sequential = time.perf_counter() - start
print("--", file=sys.stderr)
{platform}
print(sequential, time.perf_counter() - start)
""".format(platform="\n".join(f"from {pkg} import *" for pkg in PLATFORM))
MAX_SHARE = 0.60
RUNS = 5


def forbidden(modules) -> list[str]:
    """The names in ``modules`` that `import repro` may not have loaded."""
    return sorted(m for m in modules if FORBIDDEN.match(m))


def measure() -> tuple[set[str], float, float]:
    """One fresh interpreter: ``(modules `import repro` imported, its
    seconds, seconds with the platform's exports resolved after it)``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", PROGRAM],
                          env=env, capture_output=True, text=True, check=True)
    before_platform = done.stderr.split("\n--\n")[0]
    modules = set(re.findall(r"\| +(repro\S*)$", before_platform, re.M))
    sequential, everything = map(float, done.stdout.split())
    return modules, sequential, everything


def main() -> int:
    runs = [measure() for _ in range(RUNS)]
    modules = runs[0][0]
    sequential = statistics.median(seq for _, seq, _ in runs)
    everything = statistics.median(every for _, _, every in runs)
    share = statistics.median(seq / every for _, seq, every in runs)
    print(f"import repro: {len(modules)} modules, {sequential * 1e3:.1f} ms; "
          f"with the platform's exports resolved {everything * 1e3:.1f} ms; "
          f"share {share:.2f} (bound {MAX_SHARE:.2f})")
    bad = forbidden(modules)
    if bad:
        print("import repro loaded platform modules: " + ", ".join(bad))
    if share > MAX_SHARE:
        print(f"import repro costs {share:.0%} of the whole platform's import")
    return 1 if bad or share > MAX_SHARE else 0


if __name__ == "__main__":
    sys.exit(main())
