"""Figures 5-7 — per-mode singular values of the application datasets.

Paper setup: run ST-HOSVD *without compression* on HCCI, SP, and Video
(surrogates here; see DESIGN.md) with each algorithm x precision, and
plot the per-mode singular values normalized to sigma_1 = 1.  Expected
shapes:

* combustion (HCCI Fig. 5, SP Fig. 6): spectra span ~10 orders of
  magnitude — highly compressible;
* video (Fig. 7): ~2 orders of fast decay then a long flat tail —
  little compressibility at tight tolerances;
* every variant except QR-double shows a visible noise floor where its
  computed values flatten out: Gram-single near sqrt(eps_s), QR-single
  near eps_s, Gram-double near sqrt(eps_d).
"""

from __future__ import annotations

import pytest

from repro.core import sthosvd
from repro.data import hcci_surrogate, sp_surrogate, video_surrogate
from repro.util import format_table

from conftest import VARIANTS

DATASETS = {
    "fig5_hcci": lambda: hcci_surrogate(shape=(48, 48, 24, 48)),
    "fig6_sp": lambda: sp_surrogate(shape=(24, 24, 24, 11, 16)),
    "fig7_video": lambda: video_surrogate(shape=(36, 64, 3, 72)),
}


def _mode_sigmas(X, method, precision):
    res = sthosvd(X, method=method, precision=precision)
    return {n: s / s[0] for n, s in res.sigmas.items()}


@pytest.fixture(scope="module")
def tensors():
    return {name: make() for name, make in DATASETS.items()}


@pytest.mark.parametrize("name", list(DATASETS))
def test_report_singular_values(tensors, name, write_report):
    X = tensors[name]
    all_sigmas = {(m, p): _mode_sigmas(X, m, p) for m, p in VARIANTS}

    # Report: per mode, the normalized sigma at head/middle/tail per variant.
    sections = []
    qr_double = all_sigmas[("qr", "double")]
    for n in sorted(qr_double):
        rows = []
        for m, p in VARIANTS:
            s = all_sigmas[(m, p)][n]
            rows.append(
                [f"{m}-{p}", float(s[0]), float(s[len(s) // 2]), float(s[-1])]
            )
        sections.append(
            format_table(
                ["variant", "sigma_1", "sigma_mid", "sigma_last"],
                rows,
                title=f"{name} mode {n} (normalized)",
            )
        )
    write_report(f"{name}_singular_values", "\n\n".join(sections))

    # Shape assertions.
    is_video = "video" in name
    for n, s_ref in qr_double.items():
        if X.shape[n] < 8:
            continue  # tiny modes (video channels, SP variables) excluded
        if is_video:
            # plateau: tail well above combustion decay
            assert s_ref[-1] > 1e-7
        else:
            # combustion: many orders of decay
            assert s_ref[-1] < 1e-6
    # Noise floors: for combustion data, each variant's tail is bounded
    # below by its theoretical floor while QR-double goes deepest.
    if not is_video:
        tails = {
            (m, p): min(float(s[-1]) for n, s in all_sigmas[(m, p)].items()
                        if X.shape[n] >= 8)
            for m, p in VARIANTS
        }
        assert tails[("gram", "single")] > 1e-6
        assert tails[("qr", "double")] <= tails[("gram", "double")]
        assert tails[("qr", "double")] <= tails[("qr", "single")]
        assert tails[("qr", "single")] < tails[("gram", "single")]
