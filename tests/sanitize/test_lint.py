"""The repository rules of ``tools/lint_repo.py``, fixture by fixture.

``raw-lapack``, ``raw-pickle`` and ``direct-observer-call``, and the
``# repro-lint:`` pragmas that silence them.  The SPMD rules are judged
on live runs (``tests/sanitize/test_adversarial.py``).
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from lint_repo import (  # noqa: E402
    LAPACK_RULE,
    code_findings,
    lint_code,
)


def code(src: str, relpath: str = "snippet.py", **kw):
    return [d.kind for d in code_findings(textwrap.dedent(src), relpath, **kw)]


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
    def test_skip_pragma(self):
        assert code("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: skip
        """) == []

    def test_allow_pragma_is_kind_specific(self):
        assert code("""
            import numpy as np
            u = np.linalg.svd(A)  # repro-lint: allow(raw-lapack)
            v = np.linalg.eigh(B)  # repro-lint: allow(raw-pickle)
        """) == ["raw-lapack"]

    def test_rule_subset(self):
        src = "import numpy as np\nu = np.linalg.svd(buf)\n"
        assert code(src, rules=(LAPACK_RULE,)) == ["raw-lapack"]
        assert code(src, rules=("raw-pickle",)) == []

    def test_syntax_error_becomes_diagnostic(self):
        assert code("def broken(:\n") == ["syntax-error"]

    def test_findings_sorted_by_line(self):
        src = """
            import numpy as np
            import pickle

            def prog(buf):
                return np.linalg.svd(buf)
        """
        assert [(d.kind, d.line) for d in
                code_findings(textwrap.dedent(src), "snippet.py")] == [
            ("raw-pickle", 3), ("raw-lapack", 6)]

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
    """Multi-line pragmas."""

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
