"""Figure 10 — video dataset time breakdown at fixed ranks.

Paper setup: the 1080x1920x3x2200 video tensor is compressed with fixed
ranks 200x200x3x200 (~570x compression) following prior work; all four
variants achieve the same relative error (~0.213), so the fastest —
Gram-single, 2.2x faster than TuckerMPI's Gram-double — is the method of
choice.

Functional runs on the surrogate verify the equal-error claim; modeled
runs at the real dimensions regenerate the Fig. 10 breakdown.
"""

from __future__ import annotations

import pytest

from repro.core import sthosvd
from repro.data import video_surrogate, PAPER_SHAPES
from repro.perf import ANDES, breakdown_table, simulate_sthosvd, variant_label
from repro.util import format_table

from conftest import VARIANTS

SURROGATE_SHAPE = (36, 64, 3, 72)
SURROGATE_RANKS = (7, 12, 3, 14)  # ~same reduction factor as the paper's


@pytest.fixture(scope="module")
def video():
    return video_surrogate(shape=SURROGATE_SHAPE)


def test_report_fig10(video, write_report):
    def compute():
        errors = {}
        for m, p in VARIANTS:
            res = sthosvd(video, ranks=SURROGATE_RANKS, method=m, precision=p)
            errors[(m, p)] = (
                res.tucker.rel_error(video),
                res.tucker.compression_ratio(),
            )
        runs = {
            variant_label(m, p): simulate_sthosvd(
                PAPER_SHAPES["video"], (200, 200, 3, 200), (16, 8, 1, 1),
                method=m, precision=p, mode_order="forward", machine=ANDES,
            )
            for m, p in VARIANTS
        }
        return errors, runs

    errors, runs = compute()

    rows = [
        [f"{m}-{p}", errors[(m, p)][0], errors[(m, p)][1]] for m, p in VARIANTS
    ]
    txt = format_table(
        ["variant", "rel error", "compression"], rows,
        title=f"Video surrogate at fixed ranks {SURROGATE_RANKS}",
    )
    txt += "\n\n" + breakdown_table(
        runs, title="Fig. 10: video 1080x1920x3x2200 -> 200x200x3x200 (modeled)"
    )
    write_report("fig10_video", txt)

    # All four variants achieve the same relative error (Sec. 4.5.3):
    # the plateau spectrum sits far above every noise floor.
    errs = [errors[v][0] for v in VARIANTS]
    assert max(errs) / min(errs) < 1.02
    assert 0.001 < errs[0] < 0.9

    # Gram-single fastest; ~2x over Gram-double (paper: 2.2x).
    t = {k: r.total_seconds for k, r in runs.items()}
    assert t["Gram single"] == min(t.values())
    assert 1.6 < t["Gram double"] / t["Gram single"] < 2.4
