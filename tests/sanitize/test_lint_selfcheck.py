"""The repository passes its own rules: ``tools/lint_repo.py`` reports
nothing on the package sources and the examples.

This is the CI gate (`.github/workflows/ci.yml` runs
``python tools/lint_repo.py``); keeping it green means every
intentional exception carries an explicit ``# repro-lint:`` pragma.
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
sys.path.insert(0, os.path.join(REPO, "tools"))

from lint_repo import lint_code, run  # noqa: E402


def test_package_sources_are_clean(capsys):
    assert lint_code([os.path.join(REPO, "src", "repro")]) == 0, \
        capsys.readouterr().out


def test_examples_are_clean(capsys):
    assert lint_code([os.path.join(REPO, "examples")]) == 0, \
        capsys.readouterr().out


def test_cli_strict_mode_passes_on_repo(capsys):
    assert run([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": clean (")[0] for line in out] == [
        "raw-lapack, raw-pickle, direct-observer-call",
        "platform-import-in-algorithm-layer, eager-import-in-package-init",
        "bench-alias-import",
    ], out
