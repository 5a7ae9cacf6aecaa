"""`import repro` executes Alg. 1-2 on a dense tensor and nothing else.

Each case runs in a fresh interpreter: what ``sys.modules`` holds is a
property of the process, and this one has long since loaded everything.
The module lists are ``tools/check_import_boundary.py``'s, which CI also
runs under ``python -X importtime``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
from check_import_boundary import EAGER, forbidden, not_eager  # noqa: E402


def fresh(program: str):
    """What ``program`` prints as JSON, run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'repro')"


def test_import_repro_loads_no_platform_module():
    """... nor any other module a dense `sthosvd` does not run: the list,
    by name."""
    loaded = fresh(f"import json, sys, repro; print(json.dumps({_LOADED}))")
    assert loaded == sorted(EAGER)
    assert len(EAGER) <= 36
    # It is the closure of Alg. 1-2 with the two hooks its kernels poll
    # and the layouts `modeloop` tells apart, not the sequential stack.
    for module in ("repro.core.sthosvd", "repro.linalg.tensor_lq",
                   "repro.obs.tracer", "repro.faults._hook",
                   "repro.data.outofcore", "repro.dist.dtensor"):
        assert module in EAGER
    for module in ("core.hooi", "core.hosvd", "core.auto", "core.checkpoint",
                   "core.outofcore", "util.durable", "data.applications",
                   "linalg.jacobi", "linalg.householder", "faults.guards"):
        assert f"repro.{module}" not in EAGER


def test_forbidden_names_the_platform_and_only_it():
    platform = sorted([
        "repro.mpi", "repro.mpi.transport.sockets", "repro.sanitize.sanitizer",
        "repro.perf", "repro.faults.plan", "repro.obs.export",
        "repro.dist.tsqr", "repro.core.sthosvd_parallel",
    ])
    assert forbidden(platform) == platform
    sequential = ["repro.faults.guards", "repro.core.hooi", "repro.util.rng"]
    eager = ["repro", "repro.faults", "repro.obs.tracer", "repro.obs.recorder",
             "repro.dist", "repro.dist.grid"]
    assert forbidden(sequential + eager + ["numpy"]) == []
    assert not_eager(platform + sequential + eager + ["numpy"]) == sorted(
        platform + sequential)


_STHOSVD = {
    "sthosvd-qr": "repro.sthosvd(x, tol=1e-3, method='qr')",
    "sthosvd-gram": "repro.sthosvd(x, tol=1e-3, method='gram')",
    "sthosvd-qr-f32": "repro.sthosvd(x, tol=1e-3, method='qr', precision='single')",
    "sthosvd-gram-mixed": "repro.sthosvd(x, tol=1e-3, method='gram-mixed', "
                          "precision='single')",
    "sthosvd-ranks": "repro.sthosvd(x, ranks=(3, 3, 3), method='qr')",
    "sthosvd-ndarray": "repro.sthosvd(x.data, tol=1e-3, method='gram')",
}
_SOLVES = {
    **_STHOSVD,
    "hosvd": "repro.hosvd(x, ranks=(3, 3, 3))",
    "hooi": "repro.hooi(x, ranks=(3, 3, 3), max_iters=2)",
    "compress": "repro.compress(x, tol=1e-3)",
    "out-of-core": (
        "x.data.tofile(os.path.join(tmp, 'x.bin')) or "
        "repro.sthosvd(repro.data.OutOfCoreTensor(os.path.join(tmp, 'x.bin'), "
        "x.shape), tol=1e-3, workdir=tmp)"),
}


@pytest.mark.parametrize("case", _SOLVES)
def test_a_sequential_solve_imports_nothing_further(case, tmp_path):
    """Ready to solve means ready for Alg. 1-2: `import repro` has loaded
    all a dense `sthosvd` runs, so nothing moves into the first (untimed)
    solve; any other sequential driver loads its own modules on the first
    call — none of the platform's — and nothing on the second."""
    before, first, second = fresh(f"""
import json, os, sys
import numpy as np
import repro
tmp = {str(tmp_path)!r}
x = repro.DenseTensor(np.random.default_rng(0).standard_normal((8, 9, 10)))
loaded = [{_LOADED}]
for _ in range(2):
    result = {_SOLVES[case]}
    assert result.tucker.ranks
    loaded.append({_LOADED})
print(json.dumps(loaded))
""")
    assert before == sorted(EAGER)
    if case in _STHOSVD:
        assert first == before
    assert second == first
    assert forbidden(second) == []


def test_a_parallel_solve_loads_the_platform_and_matches_the_sequential_ranks():
    out = fresh(f"""
import json, sys
import numpy as np
import repro
from repro.data import low_rank_tensor

x = low_rank_tensor((12, 10, 8), (3, 4, 2), rng=1)
expected = repro.sthosvd(x, tol=1e-6, method="qr").ranks
before = {_LOADED}

def program(comm):
    comms = repro.GridComms(comm, repro.ProcessorGrid.for_size(comm.size, 3))
    dt = repro.DistributedTensor.from_full(comms, x.data)
    return tuple(repro.sthosvd(dt, tol=1e-6, method="qr").ranks)

values = repro.run_spmd(program, 2, backend="threads").values
print(json.dumps({{"expected": list(expected), "values": values,
                  "before": before, "after": {_LOADED}}}))
""")
    assert out["values"] == [out["expected"]] * 2
    assert forbidden(out["before"]) == []
    for module in ("repro.mpi.launcher", "repro.mpi.communicator",
                   "repro.faults.guards", "repro.dist.svd", "repro.dist.tsqr",
                   "repro.dist.ttm"):
        assert module in out["after"] and module not in out["before"]
    # Every rank decomposes the reduced triangle with LAPACK itself; the
    # guard's Jacobi fallback loads only when a solve comes back
    # non-finite.
    for module in ("repro.dist.jacobi", "repro.linalg.jacobi"):
        assert module not in out["after"]
    # Running a world is not a reason to load the tooling around worlds.
    for module in ("repro.sanitize", "repro.perf", "repro.obs.postmortem",
                   "repro.faults.checkpoint"):
        assert module not in out["after"]


def test_the_guards_import_alone():
    """`modeloop` reaches `faults.guards` for every distributed solve; it
    brings neither the plan nor the injector."""
    loaded = fresh(
        f"import json, sys, repro.faults.guards; print(json.dumps({_LOADED}))")
    assert forbidden(loaded) == []


def test_every_module_imports_first():
    """The eager ``__init__``s imposed an import order, and an order can
    hide a cycle: each module is the first of ``repro`` that a process
    imports (a fork of one that has only NumPy and SciPy)."""
    modules = sorted(
        ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (REPO / "src" / "repro").rglob("*.py"))
    assert len(modules) > 100 and "repro.mpi.transport.sockets" in modules
    failed = fresh(f"""
import importlib, json, os, sys, traceback
import numpy, scipy.linalg
failed = []
for name in {modules!r}:
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitpid(pid, 0)[1] != 0:
        failed.append(name)
print(json.dumps(failed))
""")
    assert failed == []


def test_ranks_resolving_an_export_at_the_same_moment_get_one_object():
    """More ranks than cores, a switch interval of a microsecond, and
    every export of the sequential packages still unresolved when all of
    them ask for it."""
    wrong = fresh("""
import json, sys
import repro
from repro.mpi import run_spmd

PACKAGES = ("repro", "repro.core", "repro.linalg", "repro.tensor",
            "repro.data", "repro.util")

def program(comm):
    found = []
    for package in PACKAGES:
        __import__(package)
        for name in sys.modules[package].__all__:
            comm.barrier()
            found.append(getattr(sys.modules[package], name))
    return found

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    values = run_spmd(program, 4, backend="threads", recv_timeout=60).values
finally:
    sys.setswitchinterval(interval)
names = [(p, n) for p in PACKAGES for n in sys.modules[p].__all__]
assert len(names) == len(values[0]) > 100
print(json.dumps([f"{p}.{n}" for (p, n), *objs in zip(names, *values)
                  if any(obj is not getattr(sys.modules[p], n) for obj in objs)]))
""")
    assert wrong == []


# ----------------------------------------------------------------------
# The static half: tools/lint_repo.py's platform-import-in-algorithm-layer
# and eager-import-in-package-init
# ----------------------------------------------------------------------
_UPWARD = '''\
from typing import TYPE_CHECKING

from ..mpi.communicator import Communicator
from ..obs import trace_span
from ..obs.tracer import trace_span
from ..faults import FaultPlan
from ..faults._hook import current_injector
from ..faults.guards import guarded_mode_svd
import repro.perf

if TYPE_CHECKING:
    from ..mpi.communicator import Communicator
try:
    from ..obs.export import chrome_trace  # repro-lint: allow(platform-import-in-algorithm-layer)
except ImportError:
    from ..sanitize import Sanitizer


def kernel():
    from ..dist.ttm import par_ttm_truncate
    from ..mpi import run_spmd
'''


def test_the_layer_rule_flags_module_level_platform_imports_only():
    from lint_repo import LAYER_RULE, layer_findings

    findings = layer_findings(_UPWARD, "repro/linalg/kernel.py")
    assert {d.kind for d in findings} == {LAYER_RULE}
    assert [d.line for d in findings] == [3, 4, 6, 9, 16]
    assert "repro.mpi.communicator.Communicator" in findings[0].message
    # The same text is fine where the platform lives; every module of
    # core/ is held to the rule.
    for platform in ("repro/dist/svd.py", "repro/obs/tracer.py"):
        assert layer_findings(_UPWARD, platform) == []
    for driver in ("repro/core/modeloop.py", "repro/core/sthosvd.py",
                   "repro/core/hooi.py", "repro/core/sthosvd_parallel.py"):
        assert len(layer_findings(_UPWARD, driver)) == 5
    assert len(layer_findings(_UPWARD, "repro/util/durable.py")) == 5


_CONVENIENT = '''\
"""A package."""

import os
from .._lazy import lazy_exports
from .kernel import solve
from . import flops
from ..tensor.dense import DenseTensor  # repro-lint: allow(eager-import-in-package-init)
import repro.errors

__getattr__, __dir__ = lazy_exports(__name__, {".qr": ("geqr",)})


def late():
    from .qr import gelq
'''


def test_the_init_rule_flags_every_eager_import_of_the_package():
    from lint_repo import INIT_RULE, init_findings

    findings = init_findings(_CONVENIENT, "repro/linalg/__init__.py")
    assert {d.kind for d in findings} == {INIT_RULE}
    assert [d.line for d in findings] == [5, 6, 7, 8]  # no pragma lifts it
    assert "repro.linalg.kernel.solve" in findings[0].message
    assert "repro.linalg.flops" in findings[1].message
    assert init_findings(_CONVENIENT, "repro/linalg/kernel.py") == []
    # The Quickstart's two lines, in repro/__init__ and only there.
    quickstart = ("from .tensor.dense import DenseTensor\n"
                  "from .core.sthosvd import sthosvd, SthosvdResult\n"
                  "from ._lazy import lazy_exports\n")
    assert init_findings(quickstart, "repro/__init__.py") == []
    assert len(init_findings(quickstart + "from .core.hooi import hooi\n",
                             "repro/__init__.py")) == 1
    assert len(init_findings(quickstart.replace("from .", "from .."),
                             "repro/core/__init__.py")) == 2


_ALIASED = '''\
import repro.core.sthosvd_parallel
from repro.core.sthosvd_parallel import sthosvd_parallel
from repro.core import sthosvd_parallel
from repro.core import sthosvd, hooi
from .sthosvd_parallel import sthosvd_parallel  # repro-lint: allow(bench-alias-import)


def late():
    from .sthosvd_parallel import sthosvd_parallel
'''


def test_the_alias_rule_flags_every_import_outside_bench():
    from lint_repo import ALIAS_RULE, alias_findings

    findings = alias_findings(_ALIASED, "src/repro/core/kernel.py")
    assert {d.kind for d in findings} == {ALIAS_RULE}
    assert [d.line for d in findings] == [1, 2, 3, 9]  # function-level too
    assert "repro.core.sthosvd_parallel" in findings[0].message
    assert len(alias_findings(_ALIASED, "tests/test_kernel.py")) == 3
    assert alias_findings(_ALIASED, "bench/worker.py") == []


def test_the_repository_obeys_the_layer_rule(capsys):
    from lint_repo import lint_layers

    assert lint_layers(str(REPO / "src")) == 0, capsys.readouterr().out
    from lint_repo import lint_alias

    assert lint_alias(str(REPO)) == 0, capsys.readouterr().out
