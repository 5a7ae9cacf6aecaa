#!/usr/bin/env python3
"""Regenerate every paper table/figure report in one command.

Runs the report generators (`pytest benchmarks/`, which writes
`benchmarks/reports/*.txt`) and prints a summary index mapping each paper
artifact to its report file.

    python tools/regenerate_reports.py
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTS = os.path.join(ROOT, "benchmarks", "reports")

INDEX = [
    ("Fig. 1", "fig1_svd_accuracy.txt"),
    ("Fig. 2a", "fig2a_cascade_lake_breakdown.txt"),
    ("Fig. 2b", "fig2b_andes_breakdown.txt"),
    ("Fig. 3", "fig3_weak_scaling.txt"),
    ("Fig. 4 / Tab. 1", "fig4_strong_scaling.txt"),
    ("Fig. 4 accuracy", "fig4_accuracy_check.txt"),
    ("Fig. 5", "fig5_hcci_singular_values.txt"),
    ("Fig. 6", "fig6_sp_singular_values.txt"),
    ("Fig. 7", "fig7_video_singular_values.txt"),
    ("Tab. 2 / Fig. 8a", "tab2_hcci_compression.txt"),
    ("Fig. 8b", "fig8b_hcci_breakdown.txt"),
    ("Tab. 3 / Fig. 9a", "tab3_sp_compression.txt"),
    ("Fig. 9b", "fig9b_sp_breakdown.txt"),
    ("Fig. 10", "fig10_video.txt"),
]


def main() -> int:
    cmd = [sys.executable, "-m", "pytest", "benchmarks/", "-q"]
    print("running:", " ".join(cmd))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rc = subprocess.call(cmd, cwd=ROOT, env=env)
    if rc != 0:
        print("report generation failed", file=sys.stderr)
        return rc

    print("\n=== paper artifact -> report file ===")
    missing = 0
    for label, fname in INDEX:
        path = os.path.join(REPORTS, fname)
        status = "ok" if os.path.exists(path) else "MISSING"
        if status == "MISSING":
            missing += 1
        print(f"{label:<18} benchmarks/reports/{fname:<36} {status}")
    extra = sorted(
        f for f in os.listdir(REPORTS)
        if f.endswith(".txt") and f not in {f for _, f in INDEX}
    )
    if extra:
        print("\nablation / extension / feature reports:")
        for f in extra:
            print(f"  benchmarks/reports/{f}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
