"""Unit tests for the SPMD AST lint: every rule's positive and negative
cases, the suppression pragmas, and scope handling."""

from __future__ import annotations

import textwrap

from repro.sanitize import lint_source


def lint(src: str, **kw):
    return lint_source(textwrap.dedent(src), filename="snippet.py", **kw)


def kinds(src: str, **kw):
    return [d.kind for d in lint(src, **kw)]


class TestRankDivergentCollective:
    def test_collective_in_rank_branch(self):
        ds = lint("""
            def prog(comm):
                if comm.rank == 0:
                    comm.bcast(1, root=0)
        """)
        assert [d.kind for d in ds] == ["rank-divergent-collective"]
        assert ds[0].line == 4
        assert "bcast()" in ds[0].message
        assert "condition at line 3" in ds[0].message

    def test_collective_in_else_branch(self):
        assert kinds("""
            def prog(comm, rank):
                if rank > 0:
                    pass
                else:
                    comm.barrier()
        """) == ["rank-divergent-collective"]

    def test_collective_in_rank_while(self):
        assert kinds("""
            def prog(comm):
                while comm.rank < pending():
                    comm.allreduce(1)
        """) == ["rank-divergent-collective"]

    def test_rank_attribute_condition(self):
        assert kinds("""
            def prog(state):
                if state.world_rank == 0:
                    state.comm.reduce(1, root=0)
        """) == ["rank-divergent-collective"]

    def test_non_rank_branch_is_fine(self):
        assert kinds("""
            def prog(comm, n):
                if n > 3:
                    comm.bcast(1, root=0)
        """) == []

    def test_non_collective_call_in_rank_branch_is_fine(self):
        assert kinds("""
            def prog(comm):
                if comm.rank == 0:
                    print("root only")
        """) == []

    def test_str_split_not_flagged(self):
        assert kinds("""
            def prog(rank, line):
                if rank == 0:
                    return line.split(",")
        """) == []

    def test_comm_split_flagged(self):
        assert kinds("""
            def prog(comm):
                if comm.rank % 2:
                    sub = comm.split(color=1, key=comm.rank)
        """) == ["rank-divergent-collective"]

    def test_numpy_reduce_not_flagged(self):
        assert kinds("""
            import numpy as np
            def prog(rank, x):
                if rank == 0:
                    return np.add.reduce(x)
        """) == []


class TestUseAfterMove:
    def test_load_after_move(self):
        ds = lint("""
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                return buf.sum()
        """)
        assert [d.kind for d in ds] == ["use-after-move"]
        assert ds[0].line == 4
        assert "'buf'" in ds[0].message

    def test_augassign_after_move(self):
        assert kinds("""
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                buf += 1
        """) == ["use-after-move"]

    def test_rebind_clears_the_move(self):
        assert kinds("""
            import numpy as np
            def prog(comm, buf):
                comm.send(buf, 1, 0, copy=False)
                buf = np.zeros(3)
                return buf.sum()
        """) == []

    def test_copying_send_is_fine(self):
        assert kinds("""
            def prog(comm, buf):
                comm.send(buf, 1, 0)
                return buf.sum()
        """) == []

    def test_move_in_loop_without_rebind(self):
        ds = lint("""
            def prog(comm, buf):
                for _ in range(3):
                    comm.send(buf, 1, 0, copy=False)
        """)
        assert [d.kind for d in ds] == ["use-after-move"]

    def test_move_in_loop_with_rebind_is_fine(self):
        assert kinds("""
            def prog(comm, make):
                for i in range(3):
                    buf = make(i)
                    comm.send(buf, 1, 0, copy=False)
        """) == []

    def test_use_before_move_is_fine(self):
        assert kinds("""
            def prog(comm, buf):
                total = buf.sum()
                comm.send(buf, 1, 0, copy=False)
                return total
        """) == []


class TestTagMismatch:
    def test_disjoint_tags(self):
        ds = lint("""
            def prog(comm, peer):
                comm.send(1, peer, tag=7)
                return comm.recv(peer, tag=9)
        """)
        assert [d.kind for d in ds] == ["tag-mismatch", "tag-mismatch"]
        assert {d.line for d in ds} == {3, 4}

    def test_matching_tags_are_fine(self):
        assert kinds("""
            def prog(comm, peer):
                comm.send(1, peer, tag=7)
                return comm.recv(peer, tag=7)
        """) == []

    def test_send_only_scope_not_flagged(self):
        # Without any recv in the scope there is nothing to match against.
        assert kinds("""
            def push(comm, peer):
                comm.send(1, peer, tag=7)
        """) == []

    def test_variable_tags_ignored(self):
        assert kinds("""
            def prog(comm, peer, t):
                comm.send(1, peer, tag=t)
                return comm.recv(peer, tag=t + 1)
        """) == []

    def test_scopes_are_independent(self):
        # Matching happens per function: helper pairs in different
        # functions with different tags are not cross-checked, and
        # findings are not duplicated across nested scopes.
        assert kinds("""
            def ping(comm):
                comm.send(1, 1, tag=3)
                return comm.recv(1, tag=3)

            def pong(comm):
                comm.send(1, 0, tag=4)
                return comm.recv(0, tag=4)
        """) == []


class TestRawLapack:
    def test_np_linalg_svd(self):
        ds = lint("""
            import numpy as np
            U, s, Vt = np.linalg.svd(A)
        """)
        assert [d.kind for d in ds] == ["raw-lapack"]
        assert "np.linalg.svd" in ds[0].message

    def test_scipy_linalg_eigh(self):
        assert kinds("""
            import scipy.linalg
            w, V = scipy.linalg.eigh(S)
        """) == ["raw-lapack"]

    def test_repro_linalg_wrappers_are_fine(self):
        assert kinds("""
            from repro import linalg
            U, s = linalg.svd_gram(A)
        """) == []

    def test_linalg_module_itself_is_exempt(self):
        src = "import numpy as np\nw = np.linalg.eigh(S)\n"
        from repro.sanitize import lint_source as ls

        assert ls(src, filename="src/repro/linalg/evd.py") == []
        assert [d.kind for d in ls(src, filename="src/repro/core/x.py")] \
            == ["raw-lapack"]


class TestRawPickle:
    def test_import_forms_are_flagged_outside_the_transport(self):
        for src in ("import pickle\n", "import os, pickle as pk\n",
                    "from pickle import loads\n", "import _pickle\n",
                    "def f():\n    import pickle\n"):
            assert kinds(src) == ["raw-pickle"], src

    def test_lookalikes_are_fine(self):
        assert kinds("""
            import picklejar
            from mypkg.pickle import thing
            from .pickle import other
            pickle = 3
        """) == []

    def test_the_wire_is_the_one_home_and_the_pragma_works(self):
        from repro.sanitize import lint_source as ls

        src = "import pickle\n"
        assert ls(src, filename="src/repro/mpi/transport/net.py") == []
        for elsewhere in ("src/repro/faults/checkpoint.py",
                          "src/repro/mpi/context.py", "examples/x.py"):
            assert [d.kind for d in ls(src, filename=elsewhere)] \
                == ["raw-pickle"]
        assert kinds("import pickle  # repro-lint: allow(raw-pickle)\n") == []
        assert kinds("import pickle\n", rules=("raw-lapack",)) == []


class TestDirectObserverCall:
    MPI = "src/repro/mpi/communicator.py"

    def test_hand_placed_hook_calls_are_flagged_under_mpi(self):
        for call in ("ctx.comm_trace.record_send(rank, n, copied=n)",
                     "trace.record_recv(rank, n)",
                     "trace.record_dropped(rank)",
                     "trace.record_retried(rank)",
                     "ctx.comm_trace.record_checksum_failure(rank)",
                     "tracer.add_bytes(n, 0)",
                     "self.recorder.record(rank, 'recovery', name='respawn')"):
            src = f"def f(ctx, trace, tracer, rank, n):\n    {call}\n"
            assert [d.kind for d in lint_source(src, filename=self.MPI)] \
                == ["direct-observer-call"], call

    def test_the_spine_and_lookalikes_are_fine(self):
        src = textwrap.dedent("""
            def f(ctx, rank, log):
                emit("send", peer=1, nbytes=8, moved=False)
                ctx.emit(rank, "recovery", "respawn")
                ctx.comm_trace.record_connect_retry(rank)
                log.record(rank)
        """)
        assert lint_source(src, filename=self.MPI) == []

    def test_observer_classes_and_other_packages_are_exempt(self):
        observer = textwrap.dedent("""
            class CommTrace:
                def on_event(self, rank, kind, name, detail):
                    self.record_send(rank, detail["nbytes"], 0)
        """)
        assert lint_source(observer, filename="src/repro/mpi/tracing.py") == []
        call = "def f(t):\n    t.add_bytes(1, 1)\n"
        assert lint_source(call, filename="src/repro/obs/tracer.py") == []
        assert kinds(call) == []  # snippet.py: not under repro/mpi/
        assert lint_source(call + "# x\n", filename=self.MPI)[0].line == 2
        allowed = "def f(t):\n    t.add_bytes(1, 1)  " \
                  "# repro-lint: allow(direct-observer-call)\n"
        assert lint_source(allowed, filename=self.MPI) == []


class TestSuppressionsAndDriver:
    def test_skip_pragma(self):
        assert kinds("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: skip
        """) == []

    def test_allow_pragma_is_kind_specific(self):
        assert kinds("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: allow(raw-lapack)
            v = np.linalg.eigh(B)  # repro-lint: allow(tag-mismatch)
        """) == ["raw-lapack"]

    def test_rule_subset(self):
        src = """
            import numpy as np
            def prog(comm, buf):
                u = np.linalg.svd(buf)
                comm.send(buf, 1, 0, copy=False)
                return buf
        """
        assert kinds(src, rules=("raw-lapack",)) == ["raw-lapack"]
        assert kinds(src, rules=("use-after-move",)) == ["use-after-move"]

    def test_syntax_error_becomes_diagnostic(self):
        ds = lint("def broken(:\n")
        assert [d.kind for d in ds] == ["syntax-error"]

    def test_findings_sorted_by_line(self):
        ds = lint("""
            import numpy as np

            def prog(comm, buf):
                if comm.rank == 0:
                    comm.bcast(1, root=0)
                comm.send(buf, 1, 0, copy=False)
                return np.linalg.svd(buf)
        """)
        # Sorted by (line, kind): the two line-8 findings tie-break
        # alphabetically.
        assert [d.kind for d in ds] == [
            "rank-divergent-collective", "raw-lapack", "use-after-move",
        ]
        assert [d.line for d in ds] == sorted(d.line for d in ds)

    def test_lint_paths_walks_directories(self, tmp_path):
        from repro.sanitize import lint_paths

        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import numpy as np\nu = np.linalg.svd(A)\n"
        )
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("np.linalg.svd(A)\n")
        ds = lint_paths([str(tmp_path)])
        assert [d.kind for d in ds] == ["raw-lapack"]
        assert ds[0].file.endswith("bad.py")


class TestLintRegressions:
    """Gaps closed after PR 5: attribute-chain buffers and collectives,
    async functions, short-circuit guards, and multi-line pragmas."""

    def test_collective_through_attribute_chain(self):
        ds = lint("""
            class Solver:
                def run(self):
                    if self.comm.rank == 0:
                        self.comm.bcast(1, root=0)
        """)
        assert [d.kind for d in ds] == ["rank-divergent-collective"]

    def test_collective_in_async_function(self):
        ds = lint("""
            async def prog(comm):
                if comm.rank == 0:
                    await comm.bcast(1, root=0)
        """)
        assert [d.kind for d in ds] == ["rank-divergent-collective"]

    def test_boolop_guarded_collective(self):
        # ``rank == 0 and barrier()`` short-circuits exactly like an
        # if-branch: only rank 0 enters the collective.
        ds = lint("""
            def prog(comm):
                ok = comm.rank == 0 and comm.barrier()
        """)
        assert [d.kind for d in ds] == ["rank-divergent-collective"]

    def test_boolop_first_operand_not_guarded(self):
        # The first operand of a BoolOp is evaluated unconditionally.
        assert kinds("""
            def prog(comm):
                ok = comm.barrier() and comm.rank == 0
        """) == []

    def test_use_after_move_attribute_buffer(self):
        ds = lint("""
            def prog(comm, state):
                comm.send(state.buf, 1, 0, copy=False)
                return state.buf.sum()
        """)
        assert [d.kind for d in ds] == ["use-after-move"]
        assert "'state.buf'" in ds[0].message

    def test_attribute_buffer_rebind_clears_move(self):
        assert kinds("""
            import numpy as np
            def prog(comm, state):
                comm.send(state.buf, 1, 0, copy=False)
                state.buf = np.zeros(4)
                return state.buf.sum()
        """) == []

    def test_move_in_async_for_loop_without_rebind(self):
        ds = lint("""
            async def prog(comm, buf, chunks):
                async for _ in chunks:
                    comm.send(buf, 1, 0, copy=False)
        """)
        assert [d.kind for d in ds] == ["use-after-move"]

    def test_pragma_on_multiline_statement_first_line(self):
        assert kinds("""
            import numpy as np
            u = np.linalg.svd(  # repro-lint: allow(raw-lapack)
                A,
            )
        """) == []

    def test_pragma_on_multiline_statement_last_line(self):
        assert kinds("""
            import numpy as np
            u = np.linalg.svd(
                A,
            )  # repro-lint: skip
        """) == []
