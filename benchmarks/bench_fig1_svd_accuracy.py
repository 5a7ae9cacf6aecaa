"""Figure 1 — computed singular values of Gram-SVD vs QR-SVD.

Paper setup: an 80x80 matrix with geometrically decaying singular values
from 1 to 1e-18 and random singular vectors; each algorithm runs in
single and double precision.  Expected shape: the methods lose accuracy
in the order Gram-single (~sqrt(eps_s) ~ 3e-4), QR-single (~eps_s ~
1e-7), Gram-double (~sqrt(eps_d) ~ 1e-8), QR-double (accurate to
1e-18).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import geometric_spectrum, matrix_with_spectrum
from repro.linalg import gram_svd, qr_svd
from repro.util import format_table

from conftest import VARIANTS

N = 80
TRUE = geometric_spectrum(N, 1.0, 1e-18)


@pytest.fixture(scope="module")
def matrix():
    return matrix_with_spectrum(N, N, TRUE, rng=20210809)


def _svd(method, precision, A):
    Af = A.astype(np.float32) if precision == "single" else A
    fn = qr_svd if method == "qr" else gram_svd
    return fn(Af)[1]


def _accuracy_floor(computed):
    """True singular value at which the computed ones diverge (>1 decade)."""
    c = np.maximum(np.asarray(computed, dtype=np.float64), 1e-300)
    bad = np.nonzero(np.abs(np.log10(c) - np.log10(TRUE)) > 1.0)[0]
    return TRUE[bad[0]] if bad.size else TRUE[-1]


def test_report_fig1(matrix, write_report):
    def compute():
        rows = []
        floors = {}
        for method, precision in VARIANTS:
            sigma = _svd(method, precision, matrix)
            floor = _accuracy_floor(sigma)
            floors[(method, precision)] = floor
            rows.append(
                [
                    f"{method}-{precision}",
                    float(sigma[0]),
                    float(sigma[N // 2]),
                    float(sigma[-1]),
                    float(floor),
                ]
            )
        return rows, floors

    rows, floors = compute()
    txt = format_table(
        ["variant", "sigma_1", "sigma_40", "sigma_80", "accuracy floor"],
        rows,
        title="Fig. 1: computed singular values, 80x80 geometric 1..1e-18",
    )
    write_report("fig1_svd_accuracy", txt)

    # Paper shape: floors ordered gram-s > qr-s, gram-s > gram-d > qr-d.
    assert floors[("gram", "single")] > floors[("qr", "single")]
    assert floors[("gram", "single")] > floors[("gram", "double")]
    assert floors[("gram", "double")] > floors[("qr", "double")]
    # Gram-single fails around sqrt(eps_s); QR-double resolves everything.
    assert 1e-7 < floors[("gram", "single")] < 1e-2
    assert floors[("qr", "double")] <= TRUE[-1] * 10
