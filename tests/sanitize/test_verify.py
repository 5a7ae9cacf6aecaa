"""Whole-program verifier tests: the adversarial fixture corpus, the
lint-blindness contrast, repo self-verification, and the comm-graph
artifact.

Each fixture under ``tests/sanitize/programs/`` seeds exactly one
interprocedural bug that PR 3's per-function lint demonstrably cannot
see; the verifier must report exactly that diagnostic and nothing else.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sanitize import lint_paths
from repro.sanitize.callgraph import load_project
from repro.sanitize.verify import (
    comm_graph_dot,
    comm_graph_json,
    verify_paths,
    write_comm_graph,
)

REPO = Path(__file__).resolve().parents[2]
PROGRAMS = REPO / "tests" / "sanitize" / "programs"


def fixture(name: str) -> str:
    return str(PROGRAMS / f"{name}.py")


def verify_fixture(name: str):
    return verify_paths([fixture(name)])


class TestFixtureCorpus:
    """Each seeded bug is found, precisely, and the lint misses it."""

    def test_cross_rank_bcast(self):
        res = verify_fixture("cross_rank_bcast")
        assert [d.kind for d in res.findings] == ["collective-mismatch"]
        d = res.findings[0]
        assert d.line == 10  # the bcast inside the helper
        assert "bcast()" in d.message
        assert "rank 1 never reaches" in d.message

    def test_moved_return(self):
        res = verify_fixture("moved_return")
        assert [d.kind for d in res.findings] == ["use-after-move"]
        d = res.findings[0]
        assert d.line == 21  # out.sum() in the caller
        assert "copy=False" in d.message
        assert "moved_return.py:13" in d.message  # the send in ship()

    def test_tag_through_helper(self):
        res = verify_fixture("tag_through_helper")
        assert [d.kind for d in res.findings] == ["tag-mismatch"]
        d = res.findings[0]
        assert d.line == 15  # the recv with the off-by-one tag
        assert "tag=8" in d.message
        assert "sent tag 7" in d.message

    def test_recv_cycle(self):
        res = verify_fixture("recv_cycle")
        assert [d.kind for d in res.findings] == ["deadlock"]
        d = res.findings[0]
        assert d.line == 12  # the first recv of the cycle
        assert "receive cycle" in d.message
        assert "rank 0" in d.message and "rank 1" in d.message

    @pytest.mark.parametrize("name", [
        "cross_rank_bcast", "moved_return", "tag_through_helper",
        "recv_cycle",
    ])
    def test_per_function_lint_is_blind_to_the_seeded_bug(self, name):
        """The corpus exists to pin interprocedural-only bugs."""
        assert lint_paths([fixture(name)]) == []

    def test_helpers_are_not_analyzed_standalone(self):
        # ship() alone would look like a message leak; through the
        # driver its send meets the real recv.
        res = verify_fixture("moved_return")
        assert [r.entry.name for r in res.reports] == ["driver"]


class TestSelfVerification:
    """The verifier runs clean over the repository's own SPMD code."""

    def test_src_and_examples_are_clean(self):
        res = verify_paths([str(REPO / "src" / "repro"),
                            str(REPO / "examples")])
        assert res.findings == [], "\n".join(map(str, res.findings))
        assert res.functions_analyzed > 0

    def test_incomplete_traces_stay_silent(self):
        # Drivers whose communication the interpreter cannot fully
        # decide must not produce cross-rank guesses.
        res = verify_paths([str(REPO / "src" / "repro"),
                            str(REPO / "examples")])
        for report in res.reports:
            if not report.complete:
                cross = [d for d in report.findings
                         if d.kind != "use-after-move"]
                assert cross == []

    def test_cli_verify_strict_is_the_ci_gate(self, capsys):
        from repro.cli import main

        roots = [str(REPO / "src" / "repro"), str(REPO / "examples")]
        rc = main(["verify", "--strict", *roots])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == (
            "repro verify: clean (11 driver(s), 4 with incomplete traces; "
            f"{roots[0]}, {roots[1]})")
        res = verify_paths(roots)
        assert {r.entry.qualname for r in res.reports if not r.complete} == {
            "parallel_compression.program", "repro.core.ft.hooi_fault_tolerant",
            "repro.cli._trace_program", "repro.cli._chaos_program"}


class TestCommGraphArtifact:
    @pytest.mark.parametrize("driver", ["sthosvd", "hooi"])
    def test_driver_graph(self, driver, tmp_path):
        """The one driver of each algorithm reaches its distributed arm:
        the verifier takes the first arm of a branch on the tensor's
        kind, and that is the ``DistributedTensor`` one."""
        res = verify_paths([str(REPO / "src" / "repro")], entries=[driver])
        assert [r.entry.name for r in res.reports] == [driver]
        report = res.reports[0]
        dot_path, json_path = write_comm_graph(
            res.project, report.entry, str(tmp_path), report=report)
        assert os.path.exists(dot_path) and os.path.exists(json_path)

        with open(json_path, encoding="utf-8") as f:
            data = json.load(f)
        assert data["entry"].endswith(f"{driver}.{driver}")
        comm_nodes = {n["qualname"].split(".")[-1] for n in data["nodes"]
                      if n["comm_ops"]}
        assert comm_nodes == {"par_tensor_gram", "par_ttm_truncate",
                              "redistribute_unfolding_to_columns",
                              "butterfly_tsqr_reduce"}
        assert data["edges"], "expected call edges"
        assert "traces" in data and set(data["traces"]) == {"0", "1"}

        dot = Path(dot_path).read_text(encoding="utf-8")
        assert dot.startswith("digraph")
        assert f"{driver}.{driver}" in dot
        assert "->" in dot

    def test_dot_marks_rank_sensitive_nodes(self):
        res = verify_paths(
            [str(REPO / "src" / "repro")], entries=["sthosvd"])
        dot = comm_graph_dot(res.project, res.reports[0].entry)
        assert "firebrick" in dot  # rank-tainted functions highlighted


class TestPragmas:
    def test_allow_pragma_suppresses_verify_finding(self, tmp_path):
        src = PROGRAMS / "recv_cycle.py"
        patched = src.read_text(encoding="utf-8").replace(
            "got = comm.recv(source=left, tag=9)",
            "got = comm.recv(source=left, tag=9)  "
            "# repro-lint: allow(deadlock)")
        target = tmp_path / "recv_cycle.py"
        target.write_text(patched, encoding="utf-8")
        res = verify_paths([str(target)])
        assert res.findings == []


class TestCallGraph:
    def test_taint_flows_through_assignment_and_return(self, tmp_path):
        code = (
            "def my_rank_of(comm):\n"
            "    r = comm.rank\n"
            "    return r\n"
            "\n"
            "def driver(comm):\n"
            "    who = my_rank_of(comm)\n"
            "    return who\n"
        )
        path = tmp_path / "taint.py"
        path.write_text(code, encoding="utf-8")
        project = load_project([str(path)])
        by_name = {f.name: f for f in project.functions.values()}
        assert by_name["my_rank_of"].returns_tainted
        assert by_name["driver"].rank_sensitive

    def test_call_edges_resolve_helpers(self):
        project = load_project([fixture("cross_rank_bcast")])
        callees = {e.callee.split(".")[-1] for e in project.edges}
        assert "broadcast_params" in callees

    def test_comm_carrier_params_detected(self):
        project = load_project(
            [str(REPO / "src" / "repro" / "core" / "sthosvd.py")])
        info = next(f for f in project.functions.values()
                    if f.name == "sthosvd")
        assert "tensor" in info.comm_carriers

    def test_annotated_params_are_classified_by_type(self, tmp_path):
        """A parameter named ``comm`` annotated with a non-communicator
        type (a cost formula's ``comm: CommCosts``) is no communicator,
        so the function is no SPMD driver; unannotated and
        Communicator-annotated ones stay communicators."""
        code = (
            "from __future__ import annotations\n"
            "from typing import Optional\n"
            "\n"
            "def cost(p, comm: CommCosts):\n"
            "    return comm.alpha * p\n"
            "\n"
            "def cost_or_default(p, comm: CommCosts | None = None):\n"
            "    return comm\n"
            "\n"
            "def quoted(comm: 'Optional[CommCosts]' = None):\n"
            "    return comm\n"
            "\n"
            "def driver(comm):\n"
            "    return comm.allreduce(1)\n"
            "\n"
            "def typed_driver(world: Communicator | None):\n"
            "    return world.bcast(0)\n"
            "\n"
            "def quoted_driver(c: 'repro.mpi.Communicator'):\n"
            "    return c.barrier()\n"
        )
        path = tmp_path / "annotated.py"
        path.write_text(code, encoding="utf-8")
        res = verify_paths([str(path)])
        by_name = {f.name: f for f in res.project.functions.values()}
        assert by_name["cost"].comm_params == frozenset()
        assert by_name["cost_or_default"].comm_params == frozenset()
        assert by_name["quoted"].comm_params == frozenset()
        assert by_name["driver"].comm_params == {"comm"}
        assert by_name["typed_driver"].comm_params == {"world"}
        assert by_name["quoted_driver"].comm_params == {"c"}
        assert sorted(r.entry.name for r in res.reports) == [
            "driver", "quoted_driver", "typed_driver"]
        assert res.findings == []

    def test_json_artifact_for_fixture_driver(self):
        res = verify_fixture("cross_rank_bcast")
        report = res.reports[0]
        data = comm_graph_json(res.project, report.entry, report=report)
        ops = [o for n in data["nodes"] for o in n["comm_ops"]]
        assert {"op": "bcast", "kind": "collective", "line": 10} in ops
        # Rank 0's trace carries the divergent bcast; rank 1's is empty.
        assert data["traces"]["0"]["events"][0]["op"] == "bcast"
        assert data["traces"]["1"]["events"] == []

