"""The live sanitizer and ``repro verify`` judge with one rule book.

Every seeded program under ``tests/sanitize/programs/`` is run live on
``threads`` and on ``sockets`` under ``sanitize=True``, and verified
statically; all three must name the same rule.  The one stated
exception is ``moved_return``: a live run sees only *writes* into a
frozen buffer, and that program only reads the buffer it moved.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CollectiveMismatchError, RankFailedError, SanitizerError
from repro.mpi import run_spmd
from repro.sanitize.verify import verify_paths

PROGRAMS = Path(__file__).resolve().parent / "programs"
TIMEOUT = 20.0  # backstop; every detection must beat it


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"seeded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _live_rules(driver, backend: str) -> set[str]:
    args = (1.0,) * (len(inspect.signature(driver).parameters) - 1)
    try:
        res = run_spmd(driver, 2, *args, sanitize=True, recv_timeout=TIMEOUT,
                       backend=backend)
    except SanitizerError as exc:
        return {d.kind for d in exc.diagnostics}
    except RankFailedError as exc:
        return {exc.diagnostic.kind}
    return {d.kind for d in res.sanitizer.findings}


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_live_and_static_checkers_name_the_same_rule(path):
    static = {d.kind for d in verify_paths([str(path)]).findings}
    assert len(static) == 1, static
    driver = _load(path).driver
    live = {backend: _live_rules(driver, backend)
            for backend in ("threads", "sockets")}
    if path.stem == "moved_return":
        assert static == {"use-after-move"}
        assert live == {"threads": set(), "sockets": set()}
    else:
        assert live == {"threads": static, "sockets": static}


def _bcast_on_rank_zero(comm):
    if comm.rank == 0:  # repro-lint: skip
        comm.bcast({"tol": 1e-8}, root=0)  # repro-lint: skip
    return comm.rank


def _allreduce_on_rank_zero(comm):
    if comm.rank == 0:  # repro-lint: skip
        comm.allreduce(np.ones(2))  # repro-lint: skip
    return comm.rank


@pytest.mark.parametrize("backend", ["threads", "sockets"])
@pytest.mark.parametrize("prog,op", [(_bcast_on_rank_zero, "bcast"),
                                     (_allreduce_on_rank_zero, "allreduce")])
def test_a_collective_one_rank_never_reaches_is_a_mismatch(prog, op, backend):
    """Not a leak of the bcast's message, nor a rank-failed on the
    allreduce's internal tag: rank 1 returned without calling it."""
    with pytest.raises(CollectiveMismatchError) as ei:
        run_spmd(prog, 2, sanitize=True, recv_timeout=TIMEOUT,
                 backend=backend)
    (diag,) = ei.value.diagnostics
    assert diag.kind == "collective-mismatch"
    assert diag.extra == {"op": op, "seq": 1}
    assert diag.file.endswith("test_rule_book.py")
    assert f"rank 0 calls {op}()" in str(ei.value)
    assert "rank 1 never reaches" in str(ei.value)


def test_a_rank_that_raised_keeps_its_own_error():
    def prog(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        comm.allreduce(np.ones(2))  # repro-lint: skip

    with pytest.raises(ValueError, match="boom"):
        run_spmd(prog, 2, sanitize=True, recv_timeout=TIMEOUT)
