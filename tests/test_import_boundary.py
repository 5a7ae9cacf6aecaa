"""`import repro` executes the sequential stack and nothing of the platform.

Each case runs in a fresh interpreter: what ``sys.modules`` holds is a
property of the process, and this one has long since loaded everything.
The list of platform modules is ``tools/check_import_boundary.py``'s,
which CI also runs under ``python -X importtime``.
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
from check_import_boundary import forbidden  # noqa: E402


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
    loaded = fresh(f"import json, sys, repro; print(json.dumps({_LOADED}))")
    assert forbidden(loaded) == []
    # ... and the list is not vacuous: the sequential stack is there,
    # with the two hooks its kernels poll.
    for module in ("repro.core.sthosvd", "repro.core.outofcore",
                   "repro.linalg.tensor_lq", "repro.obs.tracer",
                   "repro.faults._hook", "repro.dist.dtensor"):
        assert module in loaded


def test_forbidden_names_the_platform_and_only_it():
    platform = sorted([
        "repro.mpi", "repro.mpi.transport.sockets", "repro.sanitize.lint",
        "repro.perf", "repro.faults.plan", "repro.obs.metrics",
        "repro.dist.tsqr", "repro.core.ft",
    ])
    assert forbidden(platform) == platform
    assert forbidden(["repro", "repro.faults", "repro.faults.guards",
                      "repro.obs.tracer", "repro.obs.recorder", "repro.dist",
                      "repro.dist.grid", "repro.core.hooi", "numpy"]) == []


_SOLVES = {
    "sthosvd-qr": "repro.sthosvd(x, tol=1e-3, method='qr')",
    "sthosvd-gram": "repro.sthosvd(x, tol=1e-3, method='gram')",
    "sthosvd-qr-f32": "repro.sthosvd(x, tol=1e-3, method='qr', precision='single')",
    "hosvd": "repro.hosvd(x, ranks=(3, 3, 3))",
    "hooi": "repro.hooi(x, ranks=(3, 3, 3), max_iters=2)",
    "out-of-core": (
        "x.data.tofile(os.path.join(tmp, 'x.bin')) or "
        "repro.sthosvd_out_of_core(os.path.join(tmp, 'x.bin'), x.shape, "
        "tol=1e-3, workdir=tmp)"),
}


@pytest.mark.parametrize("solve", _SOLVES.values(), ids=_SOLVES.keys())
def test_a_sequential_solve_imports_nothing_further(solve, tmp_path):
    """Ready to solve means ready: no first-call import hides in a driver."""
    before, after = fresh(f"""
import json, os, sys
import numpy as np
import repro
tmp = {str(tmp_path)!r}
x = repro.DenseTensor(np.random.default_rng(0).standard_normal((8, 9, 10)))
before = {_LOADED}
result = {solve}
assert result.tucker.ranks
print(json.dumps([before, {_LOADED}]))
""")
    assert after == before
    assert forbidden(after) == []


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
    return tuple(repro.sthosvd_parallel(dt, tol=1e-6, method="qr").ranks)

values = repro.run_spmd(program, 2, backend="threads").values
print(json.dumps({{"expected": list(expected), "values": values,
                  "before": before, "after": {_LOADED}}}))
""")
    assert out["values"] == [out["expected"]] * 2
    assert forbidden(out["before"]) == []
    for module in ("repro.mpi.launcher", "repro.mpi.communicator",
                   "repro.mpi.cart", "repro.core.sthosvd_parallel",
                   "repro.dist.svd", "repro.dist.tsqr", "repro.dist.ttm"):
        assert module in out["after"] and module not in out["before"]
    # Running a world is not a reason to load the tooling around worlds.
    for module in ("repro.sanitize", "repro.perf", "repro.obs.postmortem",
                   "repro.obs.telemetry", "repro.faults.checkpoint"):
        assert module not in out["after"]


def test_the_guards_import_alone():
    """`modeloop` reaches `faults.guards` for every distributed solve; it
    brings neither the plan nor the injector."""
    loaded = fresh(
        f"import json, sys, repro.faults.guards; print(json.dumps({_LOADED}))")
    assert forbidden(loaded) == []


# ----------------------------------------------------------------------
# The static half: tools/lint_repo.py's platform-import-in-algorithm-layer
# ----------------------------------------------------------------------
_UPWARD = '''\
from typing import TYPE_CHECKING

from ..mpi.cart import CartComm
from ..obs import trace_span
from ..obs.tracer import trace_span
from ..faults import FaultPlan
from ..faults._hook import current_injector
from ..faults.guards import guarded_mode_svd
import repro.perf

if TYPE_CHECKING:
    from ..mpi.communicator import Communicator
try:
    from ..obs.metrics import Counter  # repro-lint: allow(platform-import-in-algorithm-layer)
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
    assert "repro.mpi.cart.CartComm" in findings[0].message
    # The same text is fine where the platform lives, and in the parallel
    # drivers of core/; a sequential driver is held to the rule.
    for platform in ("repro/dist/svd.py", "repro/core/ft.py",
                     "repro/core/sthosvd_parallel.py", "repro/obs/tracer.py"):
        assert layer_findings(_UPWARD, platform) == []
    assert len(layer_findings(_UPWARD, "repro/core/modeloop.py")) == 5
    assert len(layer_findings(_UPWARD, "repro/util/durable.py")) == 5


def test_the_repository_obeys_the_layer_rule(capsys):
    from lint_repo import lint_layers

    assert lint_layers(str(REPO / "src")) == 0, capsys.readouterr().out
