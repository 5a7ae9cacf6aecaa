"""Every export of every package resolves as it always did.

An ``__init__`` under ``src/repro`` is a table
(:func:`repro._lazy.lazy_exports`): every package keeps its whole
``__all__`` and loads what a name needs when it is first used.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from tests.test_import_boundary import fresh

LAZY_PACKAGES = ("repro", "repro.core", "repro.mpi", "repro.faults",
                 "repro.obs", "repro.dist", "repro.mpi.transport",
                 "repro.linalg", "repro.tensor", "repro.data", "repro.util",
                 "repro.perf", "repro.sanitize")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    """By attribute, in ``dir()``, under ``import *`` — in a fresh
    interpreter, where nothing has been resolved by an earlier test."""
    missing = fresh(f"""
import importlib, json
pkg = importlib.import_module({package!r})
star = {{}}
exec("from {package} import *", star)
print(json.dumps([name for name in pkg.__all__ if not (
    hasattr(pkg, name) and name in dir(pkg) and star[name] is getattr(pkg, name)
)]))
""")
    assert missing == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_export_is_the_object_its_home_module_defines(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__.startswith("repro."), name
            home = sys.modules[obj.__module__]
            assert getattr(home, name) is obj  # (record_event is emit)
            assert getattr(home, obj.__qualname__) is obj
            assert getattr(pkg, name) is obj  # cached, not re-resolved


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_attribute_names_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no "
                                             f"attribute 'no_such_name'"):
        pkg.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_lazily_reached_classes_keep_their_identity():
    from repro import DistributedTensor, Tracer
    from repro.core import HooiResult
    from repro.faults import FaultPlan

    assert (FaultPlan.__module__, FaultPlan.__qualname__) == (
        "repro.faults.plan", "FaultPlan")
    assert (Tracer.__module__, Tracer.__qualname__) == (
        "repro.obs.tracer", "Tracer")
    assert (DistributedTensor.__module__, DistributedTensor.__qualname__) == (
        "repro.dist.dtensor", "DistributedTensor")
    assert (HooiResult.__module__, HooiResult.__qualname__) == (
        "repro.core.hooi", "HooiResult")


def _classes_and_a_plan(comm):
    from repro import DistributedTensor, Tracer
    from repro.core import HooiResult
    from repro.faults import CrashRule, FaultPlan

    plan = FaultPlan(seed=comm.rank, crashes=(CrashRule(rank=5, at_op=7),))
    return FaultPlan, Tracer, DistributedTensor, HooiResult, plan


def test_lazily_reached_classes_cross_the_worker_codec():
    """A forked worker names a class by module and qualname; the master
    finds the same object there, and an instance compares equal."""
    import repro
    from repro.core import HooiResult
    from repro.faults import CrashRule, FaultPlan

    values = repro.run_spmd(_classes_and_a_plan, 2, backend="procs").values
    expected = (FaultPlan, repro.Tracer, repro.DistributedTensor, HooiResult)
    for rank, (*classes, plan) in enumerate(values):
        assert all(a is b for a, b in zip(classes, expected, strict=True))
        assert plan == FaultPlan(seed=rank,
                                 crashes=(CrashRule(rank=5, at_op=7),))


def test_an_export_wins_over_the_submodule_it_shares_a_name_with():
    """``repro.core.hooi`` and ``repro.core.sthosvd`` are the drivers, also
    when something imported the modules of those names first (as
    ``hooi.py`` does with ``sthosvd``)."""
    kinds = fresh("""
import json
import repro.core.hooi                   # the module; imports .sthosvd itself
from repro.core.hosvd import hosvd
import repro.core
print(json.dumps([type(getattr(repro.core, name)).__name__ for name in
                  ("hooi", "sthosvd", "hosvd", "recompress")]
                 + [type(repro.core.checkpoint).__name__,
                    repro.core.hosvd is hosvd,
                    repro.sthosvd is repro.core.sthosvd]))
""")
    assert kinds == ["function"] * 4 + ["module", True, True]


def test_one_driver_per_algorithm():
    """``sthosvd``, ``hosvd`` and ``hooi`` take every kind of tensor: the
    per-kind drivers, their modules and result types are gone, and the
    module ``bench/`` still imports is ``repro.sthosvd`` under its old
    name, not a second code path."""
    errors, missing, alias_is_driver = fresh("""
import importlib, json
import repro, repro.core
gone = {"repro": ("sthosvd_parallel", "ParallelSthosvdResult",
                  "sthosvd_out_of_core"),
        "repro.core": ("sthosvd_parallel", "hosvd_parallel", "hooi_parallel",
                       "sthosvd_out_of_core", "ParallelSthosvdResult",
                       "ParallelHooiResult")}
errors = []
for package, names in gone.items():
    for name in names:
        try:
            getattr(importlib.import_module(package), name)
            errors.append(None)
        except AttributeError as exc:
            errors.append(str(exc))
missing = []
for module in ("repro.core.hosvd_parallel", "repro.core.hooi_parallel"):
    try:
        importlib.import_module(module)
    except ModuleNotFoundError as exc:
        missing.append(exc.name)
alias = importlib.import_module("repro.core.sthosvd_parallel")
print(json.dumps([errors, missing, alias.sthosvd_parallel is repro.sthosvd]))
""")
    assert errors == [
        f"module '{package}' has no attribute '{name}'"
        for package, names in (
            ("repro", ("sthosvd_parallel", "ParallelSthosvdResult",
                       "sthosvd_out_of_core")),
            ("repro.core", ("sthosvd_parallel", "hosvd_parallel",
                            "hooi_parallel", "sthosvd_out_of_core",
                            "ParallelSthosvdResult", "ParallelHooiResult")))
        for name in names]
    assert missing == ["repro.core.hosvd_parallel", "repro.core.hooi_parallel"]
    assert alias_is_driver


_SHARED_NAMES = ("tensor.ttm", "tensor.unfold", "linalg.tpqrt",
                 "linalg.tensor_lq", "core.sthosvd", "core.hosvd", "core.hooi",
                 "core.recompress")


@pytest.mark.parametrize("statements", [
    ("import repro.{0}.{1}", "repro.{0}.{1}"),
    ("repro.{0}.{1}", "import repro.{0}.{1}"),
], ids=["the-module-first", "the-export-first"])
def test_a_function_wins_over_its_module_in_both_import_orders(statements):
    """... and a submodule that is the export (``tensor.layout``), or is
    no export at all (``core.outofcore``), stays a module."""
    kinds = fresh(f"""
import importlib, json
import repro.core, repro.linalg, repro.tensor
for name in {_SHARED_NAMES!r}:
    for statement in {statements!r}:
        exec(statement.format(*name.split(".")))
from repro.core import outofcore
print(json.dumps(
    [type(eval("repro." + name)).__name__ for name in {_SHARED_NAMES!r}]
    + [eval("repro." + name) is getattr(
           importlib.import_module("repro." + name), name.split(".")[1])
       for name in {_SHARED_NAMES!r}]
    + [type(m).__name__ for m in (outofcore, repro.core.outofcore,
                                  repro.core.checkpoint, repro.tensor.layout,
                                  repro.linalg.flops)]))
""")
    n = len(_SHARED_NAMES)
    assert kinds == ["function"] * n + [True] * n + ["module"] * 5


# The SPMD transport, and the LQ kernels that keep LAPACK's Python reference.
_BACKEND_KEEPERS = ("run_spmd", "tensor_lq", "geqr", "gelq")


@pytest.mark.parametrize(
    "knob", ["backend", "svd_strategy", "strategy", "triangle_solver"])
def test_no_qr_backend_knob_above_linalg(knob):
    """LAPACK is the one QR path from a driver down to the LQ kernels, and
    every rank decomposes the reduced triangle itself: no driver, mode
    loop or distributed kernel takes a knob to pick either."""
    from repro.core.modeloop import ModeLoop
    from repro.faults.guards import guarded_mode_svd

    walked = [("repro.faults.guards.guarded_mode_svd", guarded_mode_svd)]
    for package in ("repro.core", "repro.dist", "repro"):
        pkg = importlib.import_module(package)
        walked += [(f"{package}.{name}", getattr(pkg, name)) for name in pkg.__all__
                   if knob != "backend" or package != "repro"
                   or name not in _BACKEND_KEEPERS]
    knobs = []
    for name, obj in walked:
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if knob in params:
            knobs.append(name)
    # 80 names (the three fault-tolerant ones are gone): every driver.
    assert len(walked) >= 80
    assert {f"repro.core.{driver}" for driver in ("sthosvd", "hosvd", "hooi")
            } <= {name for name, _ in walked}
    assert knobs == []
    assert knob not in {f.name for f in dataclasses.fields(ModeLoop)}


def test_only_allreduce_picks_a_collective_schedule():
    """Every other collective runs one schedule, and the allreduce
    crossover is fixed: no ``algorithm=`` elsewhere, no ``tuning=``."""
    import numpy as np

    from repro.mpi import Communicator, run_spmd

    ops = ("barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
           "scatter", "alltoall", "reduce_scatter")
    assert {op for op in ops if "algorithm" in
            inspect.signature(getattr(Communicator, op)).parameters} == {"allreduce"}
    assert "tuning" not in inspect.signature(run_spmd).parameters
    with pytest.raises(TypeError):
        run_spmd(lambda comm: comm.bcast(1, algorithm="binomial"), 2)
    ring = run_spmd(lambda comm: comm.allreduce(np.ones(2), algorithm="ring"), 2)
    assert all((v == 2.0).all() for v in ring.values)


def test_a_world_reports_through_the_recorder_alone():
    """No live-telemetry layer: ``run_spmd`` takes no ``telemetry=``, the
    recorder no ``heartbeat_interval=`` (the transport's heartbeat carries
    its stream), ``repro.obs`` has no ``TelemetryHub`` and the CLI no
    ``top``."""
    import repro.obs
    from repro.cli import main
    from repro.mpi import run_spmd
    from repro.obs import FlightRecorder

    assert "telemetry" not in inspect.signature(run_spmd).parameters
    with pytest.raises(TypeError):
        run_spmd(lambda comm: comm.rank, 2, telemetry=None)
    with pytest.raises(TypeError):
        FlightRecorder(heartbeat_interval=0.5)
    assert "TelemetryHub" not in repro.obs.__all__
    with pytest.raises(AttributeError):
        repro.obs.TelemetryHub
    with pytest.raises(SystemExit) as exc:
        main(["top", "--shape", "8", "8", "--grid", "1", "1", "--tol", "0.1"])
    assert exc.value.code == 2


def test_a_failed_rank_is_recovered_by_shrinking_alone():
    """No elastic replacement: the checkpointed drivers take no
    ``recover=``, the communicator has no ``replace``, a crash rule fires
    once (no ``repeat=``), and ``repro chaos`` has no ``--recover``."""
    import numpy as np

    from repro.cli import main
    from repro.core import hooi, sthosvd
    from repro.faults import CrashRule
    from repro.mpi import Communicator

    X = np.ones((4, 3, 2))
    with pytest.raises(TypeError):
        sthosvd(X, ranks=(2, 2, 2), recover="shrink")
    with pytest.raises(TypeError):
        hooi(X, (2, 2, 2), recover="shrink")
    assert not hasattr(Communicator, "replace")
    with pytest.raises(TypeError):
        CrashRule(rank=1, at_op=25, repeat=2)
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--shape", "8", "6", "4", "--procs", "2",
              "--ranks", "3", "2", "2", "--recover", "replace"])
    assert exc.value.code == 2


def test_fault_tolerance_is_a_mode_of_the_drivers():
    """A checkpointed ``sthosvd``/``hooi`` on a distributed tensor recovers
    by itself: the separate fault-tolerant drivers, their result type and
    module are gone, the drivers take no ``resume=``, the distributed
    kind reads ``checkpoint`` alone, and the recovery bound is a module
    constant."""
    import numpy as np

    import repro.core
    from repro.core import hooi, modeloop, sthosvd
    from repro.dist import DistributedTensor
    from repro.faults import DistributedCheckpoint

    for name in ("FaultTolerantResult", "sthosvd_fault_tolerant",
                 "hooi_fault_tolerant"):
        assert name not in repro.core.__all__
        with pytest.raises(AttributeError):
            getattr(repro.core, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.ft")
    X = np.ones((4, 3, 2))
    with pytest.raises(TypeError):
        sthosvd(X, ranks=(2, 2, 2), resume={"completed_steps": 0})
    with pytest.raises(TypeError):
        hooi(X, (2, 2, 2), resume={"iteration": 0})
    assert modeloop.KIND_OPTIONS[DistributedTensor.__name__] == ("checkpoint",)
    assert modeloop.MAX_RECOVERIES == 2
    for name in ("name", "keep", "ckpt_dir"):
        assert name in inspect.signature(DistributedCheckpoint).parameters
    assert "max_recoveries" not in inspect.signature(
        DistributedCheckpoint).parameters


def test_no_snapshot_compare_layer():
    """``bench/`` is the one measured contract: ``repro.perf`` exports no
    snapshot differ and the CLI has no ``bench`` subcommand."""
    import repro.perf
    from repro.cli import main

    for name in ("compare_snapshots", "flatten_metrics", "format_comparison",
                 "load_snapshot"):
        assert name not in repro.perf.__all__
        with pytest.raises(AttributeError, match="module 'repro.perf' has no "
                                                 f"attribute '{name}'"):
            getattr(repro.perf, name)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--compare", "a.json", "b.json"])
    assert exc.value.code == 2


def test_one_cost_model():
    """``repro.perf`` is the one alpha-beta-gamma model: the runtime keeps
    no logical clock (no ``CostModel``, ``ComputeRates`` or ``RankClock``,
    no ``run_spmd(cost_model=)``, no clock on a communicator), and the two
    knobs that only charged it, the ``"delay"`` message fault and
    ``Resilience.backoff_base``, are gone (``Resilience`` itself went
    with its last knobs: ``run_spmd(resilience=)`` is a bool)."""
    import repro
    import repro.mpi
    import repro.perf
    from repro.errors import ConfigurationError
    import repro.faults
    from repro.faults import FaultPlan, MessageFaultRule
    from repro.mpi import run_spmd

    gone = {"repro": ("CostModel",),
            "repro.mpi": ("CostModel", "ComputeRates", "RankClock", "CommCosts")}
    for package, names in gone.items():
        module = importlib.import_module(package)
        for name in names:
            assert name not in module.__all__
            with pytest.raises(AttributeError, match=f"module '{package}' has "
                                                     f"no attribute '{name}'"):
                getattr(module, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.mpi.costmodel")
    assert "CommCosts" in repro.perf.__all__

    keywords = [p.name for p in inspect.signature(run_spmd).parameters.values()
                if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keywords == ["recv_timeout", "comm_trace", "tracer", "sanitize",
                        "faults", "resilience", "backend", "recorder"]
    with pytest.raises(TypeError):
        run_spmd(lambda comm: comm.rank, 2, cost_model=None)
    assert run_spmd(lambda comm: [hasattr(comm, a) for a in
                                  ("clock", "account_flops", "phase")], 1)[0] \
        == [False] * 3

    with pytest.raises(ConfigurationError, match="message fault kind"):
        FaultPlan(messages=(MessageFaultRule(kind="delay", prob=0.5),))
    with pytest.raises(TypeError):
        MessageFaultRule(kind="drop", prob=0.5, delay_seconds=1e-3)
    assert "Resilience" not in repro.faults.__all__
    with pytest.raises(AttributeError):
        repro.faults.Resilience


def test_one_tally_per_fact():
    """Each fact is counted once: message volume and collective
    schedules by ``CommTrace``, spans by a ``Tracer`` that takes no
    arguments; there is no metrics registry, and the runtime cuts
    collective payloads with ``repro.dist``'s one block-partition rule."""
    import repro.dist
    import repro.mpi.communicator
    import repro.obs
    from repro.dist.grid import block_range
    from repro.obs import Tracer

    assert list(inspect.signature(Tracer).parameters) == []
    for name in ("MetricsRegistry", "Counter", "Gauge", "Histogram",
                 "ingest_comm_trace", "ingest_flop_counter"):
        assert name not in repro.obs.__all__
    for module in ("repro.obs.metrics", "repro.dist.distribution"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert repro.dist.block_range is block_range
    assert repro.mpi.communicator.block_range is block_range


def test_one_spmd_rule_book():
    """The live sanitizer judges with one event type and one rule book
    (``repro.sanitize.match``); the sanitizer has no options (no
    ``strict=``, no ``watchdog_interval=``), ``run_spmd(sanitize=)``
    takes a bool, and a process worker's config carries no watchdog
    interval."""
    import repro.sanitize.sanitizer as sanitizer
    from repro.errors import CommunicatorError
    from repro.mpi import run_spmd
    from repro.mpi.transport.worldproxy import WorkerConfig
    from repro.sanitize import Sanitizer
    from repro.sanitize.match import CommEvent

    assert list(inspect.signature(Sanitizer).parameters) == []
    for knob in ("strict", "watchdog_interval"):
        with pytest.raises(TypeError):
            Sanitizer(**{knob: False})
    for value in (Sanitizer(), None, 1):
        with pytest.raises(CommunicatorError,
                           match="sanitize= expects True or False"):
            run_spmd(lambda comm: comm.rank, 2, sanitize=value)
    assert "watchdog_interval" not in WorkerConfig.__slots__
    assert not hasattr(sanitizer, "_CollectiveEntry")
    assert sanitizer.CommEvent is CommEvent


def test_no_static_spmd_checker():
    """The live sanitizer is the one SPMD checker: ``repro.sanitize`` holds
    the sanitizer, its rule book and the diagnostic vocabulary and nothing
    else, the CLI has no static-checker subcommand, and
    ``tools/lint_repo.py`` runs the repository's own rules only."""
    import pkgutil

    import repro.sanitize
    from repro.cli import build_parser

    assert sorted(m.name for m in pkgutil.iter_modules(
        repro.sanitize.__path__)) == ["diagnostics", "match", "sanitizer"]
    assert sorted(repro.sanitize.__all__) == sorted([
        "ERROR", "WARNING", "CallSite", "Diagnostic", "Suppressions",
        "capture_call_site", "format_diagnostics", "Sanitizer"])
    (sub,) = [a for a in build_parser()._actions
              if a.dest == "command"]
    assert sorted(sub.choices) == sorted([
        "compress", "reconstruct", "info", "recompress", "simulate", "trace",
        "chaos", "postmortem", "tune"])
    tool = Path(__file__).resolve().parents[1] / "tools" / "lint_repo.py"
    text = tool.read_text(encoding="utf-8")
    assert "--lint-only" not in text and "repro.cli" not in text
