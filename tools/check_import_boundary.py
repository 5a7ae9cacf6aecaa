#!/usr/bin/env python3
"""What `import repro` loads, and what it costs beside the whole platform.

`import repro` must execute the closure of Alg. 1-2 on a dense tensor —
what ``repro.sthosvd`` runs — and nothing else (DESIGN.md, "Layers and
the import direction"); every other driver, generator and kernel, and
the SPMD runtime with everything built on it, load on first use.  This
script checks that in fresh interpreters run with ``python -X
importtime``, byte-compiled and not (``-X pycache_prefix``: the tree is
neither read for ``.pyc`` files nor written to):

    python tools/check_import_boundary.py

* every ``repro`` module imported by ``import numpy, scipy.linalg,
  repro`` must be in ``EAGER`` (so none can match ``FORBIDDEN``);
* the time `import repro` takes may not exceed ``MAX_SHARE`` of the time
  until every export of the platform packages is resolved as well
  (``from repro.mpi import *`` ...).  Both clocks are read in one
  process, so the share does not depend on the host or on how busy it
  is; the median of ``RUNS`` processes.

``tests/test_import_boundary.py`` asserts the same module list from
``sys.modules``.  Exits 1 on either failure.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What `import repro` executes: the module-to-module imports of
# `tensor.dense` and `core.sthosvd`, and the packages on the way to them.
EAGER = frozenset("repro" + name for name in """
    ._lazy .errors .precision .instrument .util .util.validation
    .tensor .tensor.dense .tensor.layout .tensor.ttm
    .linalg .linalg._capi .linalg.flops .linalg.qr .linalg.tpqrt
    .linalg.gram .linalg.tensor_lq .linalg.svd
    .core .core.sthosvd .core.modeloop .core.truncation .core.tucker
    .obs .obs.tracer .obs.recorder .faults .faults._hook
    .data .data.outofcore .dist .dist.dtensor .dist.grid .dist.distribution
""".split()) | {"repro"}
# The platform: nothing here may be in sys.modules after `import repro`,
# nor after the first call of a sequential driver.
FORBIDDEN = re.compile(
    r"repro\.(?:"
    r"(?:mpi|sanitize|perf)(?:\..*)?"
    r"|faults\.(?:plan|injector|network|checkpoint)"
    r"|obs\.(?:metrics|postmortem|export|compare)"
    r"|dist\.(?:svd|gram|ttm|tsqr|redistribute)"
    r"|core\.(?:sthosvd_parallel|ft)"
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
MAX_SHARE = 0.42
RUNS = 5


def forbidden(modules) -> list[str]:
    """The names in ``modules`` that are the platform's."""
    return sorted(m for m in modules if FORBIDDEN.match(m))


def not_eager(modules) -> list[str]:
    """The ``repro`` modules in ``modules`` that `import repro` may not
    have loaded."""
    return sorted(m for m in modules
                  if m.split(".")[0] == "repro" and m not in EAGER)


def measure(*flags: str) -> tuple[set[str], float, float]:
    """One fresh interpreter: ``(modules `import repro` imported, its
    seconds, seconds with the platform's exports resolved after it)``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    done = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-c", PROGRAM],
        env=env, capture_output=True, text=True, check=True)
    before_platform = done.stderr.split("\n--\n")[0]
    modules = set(re.findall(r"\| +(repro\S*)$", before_platform, re.M))
    sequential, everything = map(float, done.stdout.split())
    return modules, sequential, everything


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as cache, \
            tempfile.TemporaryDirectory() as empty:
        measure("-X", f"pycache_prefix={cache}")  # writes the .pyc files
        for label, flags in (
                ("byte-compiled", ("-X", f"pycache_prefix={cache}")),
                ("not compiled", ("-B", "-X", f"pycache_prefix={empty}"))):
            runs = [measure(*flags) for _ in range(RUNS)]
            modules = runs[0][0]
            sequential = statistics.median(seq for _, seq, _ in runs)
            everything = statistics.median(every for _, _, every in runs)
            share = statistics.median(seq / every for _, seq, every in runs)
            print(f"import repro, {label}: {len(modules)} modules, "
                  f"{sequential * 1e3:.1f} ms; with the platform's exports "
                  f"resolved {everything * 1e3:.1f} ms; share {share:.2f} "
                  f"(bound {MAX_SHARE:.2f})")
            bad = not_eager(modules)
            if bad:
                print("import repro loaded more than Alg. 1-2 run: "
                      + ", ".join(bad))
            if share > MAX_SHARE:
                print(f"import repro costs {share:.0%} of the whole "
                      f"platform's import")
            failed = failed or bool(bad) or share > MAX_SHARE
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
