"""The live sanitizer names each seeded bug's rule, on every backend.

Every seeded program under ``tests/sanitize/programs/`` is run on
``threads`` and on ``sockets`` under ``sanitize=True``; both must name
the rule :data:`RULES` gives it, with the message text of
:mod:`repro.sanitize.match`.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CollectiveMismatchError, RankFailedError, SanitizerError
from repro.mpi import run_spmd

PROGRAMS = Path(__file__).resolve().parent / "programs"
TIMEOUT = 20.0  # backstop; every detection must beat it
RULES = {
    "cross_rank_bcast": "collective-mismatch",
    "rank_flag": "collective-mismatch",
    "recv_cycle": "deadlock",
    "tag_through_helper": "tag-mismatch",
}


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


def test_every_seeded_program_has_a_rule():
    assert sorted(p.stem for p in PROGRAMS.glob("*.py")) == sorted(RULES)


@pytest.mark.parametrize("backend", ["threads", "sockets"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_live_checker_names_the_rule(name, backend):
    driver = _load(PROGRAMS / f"{name}.py").driver
    assert _live_rules(driver, backend) == {RULES[name]}


def _bcast_on_rank_zero(comm):
    if comm.rank == 0:
        comm.bcast({"tol": 1e-8}, root=0)
    return comm.rank


def _allreduce_on_rank_zero(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(2))
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
        comm.allreduce(np.ones(2))

    with pytest.raises(ValueError, match="boom"):
        run_spmd(prog, 2, sanitize=True, recv_timeout=TIMEOUT)
