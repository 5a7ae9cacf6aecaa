#!/usr/bin/env python3
"""What `import repro` loads, and what it costs beside its dependencies.

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
  the same interpreter took just before it to ``import numpy,
  scipy.linalg``, the host reference.  Both clocks are read in one
  process, so the share does not depend on the host or on how busy it
  is, nor on what the platform packages cost; the median of ``RUNS``
  processes per arm, the arms interleaved process by process.

Each arm also prints the ``TOP`` ``repro`` modules with the largest
self time (median over its runs), read off the same ``-X importtime``
lines, so that a regression names the module it lives in.

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
# The kernels poll two hooks, `obs._hook` and `faults._hook`; neither the
# tracer, the recorder nor a tensor kind other than the dense one loads.
EAGER = frozenset("repro" + name for name in """
    ._lazy .errors .precision .instrument .util .util.validation
    .tensor .tensor.dense .tensor.layout .tensor.ttm
    .linalg .linalg._capi .linalg.flops .linalg.qr .linalg.tpqrt
    .linalg.gram .linalg.tensor_lq .linalg.svd
    .core .core.sthosvd .core.modeloop .core.truncation .core.tucker
    .obs .obs._hook .faults .faults._hook
""".split()) | {"repro"}
# The platform: nothing here may be in sys.modules after `import repro`,
# nor after the first call of a sequential driver.
FORBIDDEN = re.compile(
    r"repro\.(?:"
    r"(?:mpi|sanitize|perf)(?:\..*)?"
    r"|faults\.(?:plan|injector|network|checkpoint)"
    r"|obs\.(?:postmortem|export|compare)"
    r"|dist\.(?:svd|gram|ttm|tsqr|redistribute)"
    r"|core\.sthosvd_parallel"
    r")$"
)
PROGRAM = """
import sys, time
start = time.perf_counter()
import numpy, scipy.linalg
reference = time.perf_counter() - start
print("--", file=sys.stderr)
start = time.perf_counter()
import repro
print(reference, time.perf_counter() - start)
"""
MAX_SHARE = 0.08
RUNS = 7
TOP = 5


def forbidden(modules) -> list[str]:
    """The names in ``modules`` that are the platform's."""
    return sorted(m for m in modules if FORBIDDEN.match(m))


def not_eager(modules) -> list[str]:
    """The ``repro`` modules in ``modules`` that `import repro` may not
    have loaded."""
    return sorted(m for m in modules
                  if m.split(".")[0] == "repro" and m not in EAGER)


def measure(*flags: str) -> tuple[dict[str, float], float, float]:
    """One fresh interpreter: ``({module `import repro` imported: its self
    seconds}, seconds of ``import numpy, scipy.linalg``, seconds of
    `import repro` after it)``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    done = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-c", PROGRAM],
        env=env, capture_output=True, text=True, check=True)
    after_reference = done.stderr.split("\n--\n")[1]
    modules = {name: int(us) * 1e-6 for us, name in re.findall(
        r"^import time: +(\d+) \| +\d+ \| +(repro\S*)$", after_reference,
        re.M)}
    reference, sequential = map(float, done.stdout.split())
    return modules, reference, sequential


def largest(runs) -> list[tuple[str, float]]:
    """The ``TOP`` modules by median self seconds over ``runs``."""
    names = set().union(*(modules for modules, _, _ in runs))
    selfs = {name: statistics.median(modules.get(name, 0.0)
                                     for modules, _, _ in runs)
             for name in names}
    return sorted(selfs.items(), key=lambda kv: -kv[1])[:TOP]


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as cache, \
            tempfile.TemporaryDirectory() as empty:
        measure("-X", f"pycache_prefix={cache}")  # writes the .pyc files
        arms = {"byte-compiled": ("-X", f"pycache_prefix={cache}"),
                "not compiled": ("-B", "-X", f"pycache_prefix={empty}")}
        runs = {label: [] for label in arms}
        for _ in range(RUNS):
            for label, flags in arms.items():
                runs[label].append(measure(*flags))
        for label, done in runs.items():
            modules = done[0][0]
            reference = statistics.median(ref for _, ref, _ in done)
            sequential = statistics.median(seq for _, _, seq in done)
            share = statistics.median(seq / ref for _, ref, seq in done)
            print(f"import repro, {label}: {len(modules)} modules, "
                  f"{sequential * 1e3:.1f} ms; import numpy, scipy.linalg "
                  f"{reference * 1e3:.1f} ms; share {share:.3f} "
                  f"(bound {MAX_SHARE:.3f})")
            print("  largest self times: " + ", ".join(
                f"{name} {seconds * 1e3:.1f} ms"
                for name, seconds in largest(done)))
            bad = not_eager(modules)
            if bad:
                print("import repro loaded more than Alg. 1-2 run: "
                      + ", ".join(bad))
            if share > MAX_SHARE:
                print(f"import repro costs {share:.1%} of importing NumPy "
                      f"and scipy.linalg")
            failed = failed or bool(bad) or share > MAX_SHARE
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
