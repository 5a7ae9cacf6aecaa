"""The static checks, fixture by fixture.

The SPMD fixtures go through ``repro verify``: a positive must be
reported under its rule (a rank-conditional collective is a
``collective-mismatch``), and a negative, written as a complete program,
must report nothing.  The repository rules (``raw-lapack``,
``raw-pickle``, ``direct-observer-call``) and the ``# repro-lint:``
pragmas go through ``tools/lint_repo.py``.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

from repro.sanitize.verify import verify_paths

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from lint_repo import (  # noqa: E402
    LAPACK_RULE,
    code_findings,
    lint_code,
)


def verify(src: str, tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(src), encoding="utf-8")
    return verify_paths([str(path)]).findings


def reported(src: str, tmp_path, rule: str):
    """The findings of ``rule``; fails when there are none."""
    ds = [d for d in verify(src, tmp_path) if d.kind == rule]
    assert ds, f"{rule} not reported"
    return ds


def clean(src: str, tmp_path) -> bool:
    ds = verify(src, tmp_path)
    assert ds == [], "\n".join(map(str, ds))
    return True


def code(src: str, relpath: str = "snippet.py", **kw):
    return [d.kind for d in code_findings(textwrap.dedent(src), relpath, **kw)]


class TestRankDivergentCollective:
    def test_collective_in_rank_branch(self, tmp_path):
        (d,) = reported("""
            def prog(comm):
                if comm.rank == 0:
                    comm.bcast(1, root=0)
        """, tmp_path, "collective-mismatch")
        assert d.line == 4
        assert "bcast()" in d.message and "rank 1 never reaches" in d.message

    def test_collective_in_else_branch(self, tmp_path):
        # ``rank`` is unknown, but the condition reads it: the untaken
        # branch counts.
        (d,) = reported("""
            def prog(comm, rank):
                if rank > 0:
                    pass
                else:
                    comm.barrier()
        """, tmp_path, "collective-mismatch")
        assert d.line == 6
        (d,) = reported("""
            def prog(comm):
                if comm.rank < pending():
                    pass
                else:
                    comm.barrier()
        """, tmp_path, "collective-mismatch")
        assert d.line == 6

    def test_collective_in_rank_while(self, tmp_path):
        # Undecidable, but it reads the rank.
        (d,) = reported("""
            def prog(comm):
                while comm.rank < pending():
                    comm.allreduce(1)
        """, tmp_path, "collective-mismatch")
        assert d.line == 4
        assert "snippet.py:3 that reads the rank" in d.message

    def test_rank_attribute_condition(self, tmp_path):
        (d,) = reported("""
            def prog(state):
                if state.world_rank == 0:
                    state.comm.reduce(1, root=0)
        """, tmp_path, "collective-mismatch")
        assert "reduce()" in d.message

    def test_non_rank_branch_is_fine(self, tmp_path):
        assert clean("""
            def prog(comm, n):
                if n > 3:
                    comm.bcast(1, root=0)
        """, tmp_path)

    def test_non_collective_call_in_rank_branch_is_fine(self, tmp_path):
        assert clean("""
            def prog(comm):
                if comm.rank == 0:
                    print("root only")
        """, tmp_path)

    def test_str_split_not_flagged(self, tmp_path):
        assert clean("""
            def prog(comm, line):
                if comm.rank == 0:
                    return line.split(",")
        """, tmp_path)

    def test_comm_split_flagged(self, tmp_path):
        (d,) = reported("""
            def prog(comm):
                if comm.rank % 2:
                    sub = comm.split(color=1, key=comm.rank)
        """, tmp_path, "collective-mismatch")
        assert "split()" in d.message

    def test_numpy_reduce_not_flagged(self, tmp_path):
        assert clean("""
            import numpy as np
            def prog(comm, x):
                if comm.rank == 0:
                    return np.add.reduce(x)
        """, tmp_path)


class TestUseAfterMove:
    def test_load_after_move(self, tmp_path):
        (d,) = reported("""
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                return buf.sum()
        """, tmp_path, "use-after-move")
        assert d.line == 4
        assert "copy=False" in d.message

    def test_augassign_after_move(self, tmp_path):
        (d,) = reported("""
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                buf += 1
        """, tmp_path, "use-after-move")
        assert d.line == 4

    def test_rebind_clears_the_move(self, tmp_path):
        assert clean("""
            import numpy as np
            def prog(comm, buf):
                peer = 1 - comm.rank
                comm.send(buf, peer, 0, copy=False)
                buf = np.zeros(3)
                comm.recv(peer, 0)
                return buf.sum()
        """, tmp_path)

    def test_copying_send_is_fine(self, tmp_path):
        assert clean("""
            def prog(comm, buf):
                peer = 1 - comm.rank
                comm.send(buf, peer, 0)
                comm.recv(peer, 0)
                return buf.sum()
        """, tmp_path)

    def test_move_in_loop_without_rebind(self, tmp_path):
        (d,) = reported("""
            def prog(comm, buf):
                for _ in range(3):
                    comm.send(buf, 1, 0, copy=False)
        """, tmp_path, "use-after-move")
        assert d.line == 4

    def test_move_in_loop_with_rebind_is_fine(self, tmp_path):
        assert clean("""
            def prog(comm, make):
                peer = 1 - comm.rank
                for i in range(3):
                    buf = make(i)
                    comm.send(buf, peer, 0, copy=False)
                    comm.recv(peer, 0)
        """, tmp_path)

    def test_use_before_move_is_fine(self, tmp_path):
        assert clean("""
            def prog(comm, buf):
                peer = 1 - comm.rank
                total = buf.sum()
                comm.send(buf, peer, 0, copy=False)
                comm.recv(peer, 0)
                return total
        """, tmp_path)


class TestTagMismatch:
    def test_disjoint_tags(self, tmp_path):
        # The peer is a parameter: the trace is incomplete, and the
        # function's literal tags alone are the finding.
        ds = reported("""
            def prog(comm, peer):
                comm.send(1, peer, tag=7)
                return comm.recv(peer, tag=9)
        """, tmp_path, "tag-mismatch")
        assert {d.line for d in ds} == {3, 4}
        assert "receive tags: [9]" in ds[0].message
        ds = reported("""
            def prog(comm, peer):
                comm.send(1, peer, 7)
                return comm.recv(peer, 9)
        """, tmp_path, "tag-mismatch")  # positional tags
        assert {d.line for d in ds} == {3, 4}

    def test_matching_tags_are_fine(self, tmp_path):
        assert clean("""
            def prog(comm, peer):
                comm.send(1, peer, tag=7)
                return comm.recv(peer, tag=7)
        """, tmp_path)

    def test_send_only_scope_not_flagged(self, tmp_path):
        # A send-only helper has nothing to match within itself; through
        # its driver, the send meets its receive.
        assert clean("""
            def push(comm, peer):
                comm.send(1, peer, tag=7)

            def prog(comm):
                peer = 1 - comm.rank
                push(comm, peer)
                return comm.recv(peer, tag=7)
        """, tmp_path)

    def test_variable_tags_ignored(self, tmp_path):
        assert clean("""
            def prog(comm, t):
                peer = 1 - comm.rank
                comm.send(1, peer, tag=t)
                return comm.recv(peer, tag=t)
        """, tmp_path)

    def test_scopes_are_independent(self, tmp_path):
        # Two programs with different tags are not cross-checked.
        assert clean("""
            def ping(comm):
                peer = 1 - comm.rank
                comm.send(1, peer, tag=3)
                return comm.recv(peer, tag=3)

            def pong(comm):
                peer = 1 - comm.rank
                comm.send(1, peer, tag=4)
                return comm.recv(peer, tag=4)
        """, tmp_path)


class TestRawLapack:
    def test_np_linalg_svd(self):
        (d,) = code_findings("import numpy as np\nU, s, Vt = np.linalg.svd(A)\n",
                             "snippet.py")
        assert d.kind == "raw-lapack"
        assert "np.linalg.svd" in d.message

    def test_scipy_linalg_eigh(self):
        assert code("""
            import scipy.linalg
            w, V = scipy.linalg.eigh(S)
        """) == ["raw-lapack"]

    def test_repro_linalg_wrappers_are_fine(self):
        assert code("""
            from repro import linalg
            U, s = linalg.svd_gram(A)
        """) == []

    def test_linalg_module_itself_is_exempt(self):
        src = "import numpy as np\nw = np.linalg.eigh(S)\n"
        assert code(src, "src/repro/linalg/evd.py") == []
        assert code(src, "src/repro/core/x.py") == ["raw-lapack"]


class TestRawPickle:
    def test_import_forms_are_flagged_outside_the_transport(self):
        for src in ("import pickle\n", "import os, pickle as pk\n",
                    "from pickle import loads\n", "import _pickle\n",
                    "def f():\n    import pickle\n"):
            assert code(src) == ["raw-pickle"], src

    def test_lookalikes_are_fine(self):
        assert code("""
            import picklejar
            from mypkg.pickle import thing
            from .pickle import other
            pickle = 3
        """) == []

    def test_the_wire_is_the_one_home_and_the_pragma_works(self):
        src = "import pickle\n"
        assert code(src, "src/repro/mpi/transport/net.py") == []
        for elsewhere in ("src/repro/faults/checkpoint.py",
                          "src/repro/mpi/context.py", "examples/x.py"):
            assert code(src, elsewhere) == ["raw-pickle"]
        assert code("import pickle  # repro-lint: allow(raw-pickle)\n") == []
        assert code("import pickle\n", rules=(LAPACK_RULE,)) == []


class TestDirectObserverCall:
    MPI = "src/repro/mpi/communicator.py"

    def test_hand_placed_hook_calls_are_flagged_under_mpi(self):
        for call in ("ctx.comm_trace.record_send(rank, n, copied=n)",
                     "trace.record_recv(rank, n)",
                     "trace.record_dropped(rank)",
                     "trace.record_retried(rank)",
                     "ctx.comm_trace.record_checksum_failure(rank)",
                     "tracer.add_bytes(n, 0)",
                     "self.recorder.record(rank, 'fault', name='net:lost')"):
            src = f"def f(ctx, trace, tracer, rank, n):\n    {call}\n"
            assert code(src, self.MPI) == ["direct-observer-call"], call

    def test_the_spine_and_lookalikes_are_fine(self):
        assert code("""
            def f(ctx, rank, log):
                emit("send", peer=1, nbytes=8, moved=False)
                ctx.emit(rank, "fault", "net:lost")
                ctx.comm_trace.record_connect_retry(rank)
                log.record(rank)
        """, self.MPI) == []

    def test_observer_classes_and_other_packages_are_exempt(self):
        observer = """
            class CommTrace:
                def on_event(self, rank, kind, name, detail):
                    self.record_send(rank, detail["nbytes"], 0)
        """
        assert code(observer, "src/repro/mpi/tracing.py") == []
        call = "def f(t):\n    t.add_bytes(1, 1)\n"
        assert code(call, "src/repro/obs/tracer.py") == []
        assert code(call) == []  # snippet.py: not under repro/mpi/
        assert code_findings(call + "# x\n", self.MPI)[0].line == 2
        allowed = "def f(t):\n    t.add_bytes(1, 1)  " \
                  "# repro-lint: allow(direct-observer-call)\n"
        assert code(allowed, self.MPI) == []


class TestSuppressionsAndDriver:
    def test_skip_pragma(self, tmp_path):
        assert code("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: skip
        """) == []
        assert clean("""
            def prog(comm):
                if comm.rank == 0:
                    comm.bcast(1, root=0)  # repro-lint: skip
        """, tmp_path)

    def test_allow_pragma_is_kind_specific(self, tmp_path):
        assert code("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: allow(raw-lapack)
            v = np.linalg.eigh(B)  # repro-lint: allow(tag-mismatch)
        """) == ["raw-lapack"]
        assert [d.kind for d in verify("""
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                return buf.sum()  # repro-lint: allow(message-leak)
        """, tmp_path)] == ["message-leak", "use-after-move"]

    def test_rule_subset(self, tmp_path):
        # Each checker owns its rules: the code rules one at a time,
        # the SPMD rules in repro verify.
        src = """
            import numpy as np
            def prog(comm, buf):
                u = np.linalg.svd(buf)
                comm.send(buf, 1, 0, copy=False)
                return buf
        """
        assert code(src, rules=(LAPACK_RULE,)) == ["raw-lapack"]
        assert code(src, rules=("raw-pickle",)) == []
        assert "raw-lapack" not in {d.kind for d in verify(src, tmp_path)}

    def test_syntax_error_becomes_diagnostic(self, tmp_path):
        assert code("def broken(:\n") == ["syntax-error"]
        (d,) = verify("def broken(:\n", tmp_path)
        assert (d.kind, d.line) == ("syntax-error", 1)

    def test_findings_sorted_by_line(self, tmp_path):
        src = """
            import numpy as np

            def prog(comm, buf):
                if comm.rank == 0:
                    comm.bcast(1, root=0)
                comm.send(buf, 1, 0, copy=False)
                return np.linalg.svd(buf)
        """
        ds = verify(src, tmp_path)
        assert [(d.kind, d.line) for d in ds] == [
            ("collective-mismatch", 6), ("use-after-move", 8)]
        assert code(src) == ["raw-lapack"]

    def test_lint_paths_walks_directories(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import numpy as np\nu = np.linalg.svd(A)\n"
        )
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("np.linalg.svd(A)\n")
        assert lint_code([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 finding(s)" in out and "bad.py:2: error[raw-lapack]" in out
        assert lint_code([str(pkg / "good.py")]) == 0


class TestLintRegressions:
    """Attribute-chain buffers and collectives, async functions,
    short-circuit guards, and multi-line pragmas."""

    def test_collective_through_attribute_chain(self, tmp_path):
        (d,) = reported("""
            class Solver:
                def run(self):
                    if self.comm.rank == 0:
                        self.comm.bcast(1, root=0)
        """, tmp_path, "collective-mismatch")
        assert d.line == 5

    def test_collective_in_async_function(self, tmp_path):
        (d,) = reported("""
            async def prog(comm):
                if comm.rank == 0:
                    await comm.bcast(1, root=0)
        """, tmp_path, "collective-mismatch")
        assert d.line == 4

    def test_boolop_guarded_collective(self, tmp_path):
        # ``rank == 0 and barrier()`` short-circuits exactly like an
        # if-branch: only rank 0 enters the collective.
        (d,) = reported("""
            def prog(comm):
                ok = comm.rank == 0 and comm.barrier()
        """, tmp_path, "collective-mismatch")
        assert "barrier()" in d.message

    def test_boolop_first_operand_not_guarded(self, tmp_path):
        # The first operand of a BoolOp is evaluated unconditionally.
        assert clean("""
            def prog(comm):
                ok = comm.barrier() and comm.rank == 0
        """, tmp_path)

    def test_use_after_move_attribute_buffer(self, tmp_path):
        (d,) = reported("""
            def prog(comm, state):
                comm.send(state.buf, 1, 0, copy=False)
                return state.buf.sum()
        """, tmp_path, "use-after-move")
        assert d.line == 4
        assert "read (.sum)" in d.message

    def test_attribute_buffer_rebind_clears_move(self, tmp_path):
        assert clean("""
            import numpy as np
            def prog(comm, state):
                peer = 1 - comm.rank
                comm.send(state.buf, peer, 0, copy=False)
                state.buf = np.zeros(4)
                comm.recv(peer, 0)
                return state.buf.sum()
        """, tmp_path)

    def test_move_in_async_for_loop_without_rebind(self, tmp_path):
        # The trip count is unknown: the body's second pass finds the
        # buffer the first one moved.
        (d,) = reported("""
            async def prog(comm, buf, chunks):
                async for _ in chunks:
                    comm.send(buf, 1, 0, copy=False)
        """, tmp_path, "use-after-move")
        assert d.line == 4
        assert "passed to send()" in d.message

    def test_pragma_on_multiline_statement_first_line(self):
        assert code("""
            import numpy as np
            u = np.linalg.svd(  # repro-lint: allow(raw-lapack)
                A,
            )
        """) == []

    def test_pragma_on_multiline_statement_last_line(self):
        assert code("""
            import numpy as np
            u = np.linalg.svd(
                A,
            )  # repro-lint: skip
        """) == []
