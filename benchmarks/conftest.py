"""Shared fixtures for the per-figure/table report generators.

Every ``bench_*`` module regenerates one table or figure of the paper
(or an ablation beside it): a plain pytest module that writes a
plain-text report with the same rows/series the paper shows to
``benchmarks/reports/``.  Qualitative shape assertions (who wins, by
roughly what factor) run inside the tests, so ``pytest benchmarks/``
both regenerates and validates.  Wall-clock time is measured by
``bench/`` (the ``BENCHMARK.json`` contract), not here.
"""

from __future__ import annotations

import os

import pytest

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


@pytest.fixture(scope="session")
def report_dir() -> str:
    os.makedirs(REPORT_DIR, exist_ok=True)
    return REPORT_DIR


@pytest.fixture(scope="session")
def write_report(report_dir):
    """Writer that saves (and echoes) a named report."""

    def _write(name: str, text: str) -> None:
        path = os.path.join(report_dir, f"{name}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _write


VARIANTS = [("gram", "single"), ("qr", "single"), ("gram", "double"), ("qr", "double")]
