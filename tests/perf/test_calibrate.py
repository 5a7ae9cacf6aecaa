"""Machine-model calibration tests.

Timing-based, so nothing here compares two measured times: tier-1 must
be green on any host, and which kernel family is fastest at 128^2 is a
property of the host (BLAS thread warm-up alone reorders gemm and svd).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf import (
    calibrate_machine,
    measure_kernel_rates,
    simulate_sthosvd,
    tune_grid,
)
from repro.perf.machine import KERNELS


class TestMeasurement:
    @pytest.fixture(scope="class")
    def rates(self):
        return measure_kernel_rates(size=128, rng=0)

    def test_all_kernels_both_precisions(self, rates):
        seen = {(m.kernel, m.dtype) for m in rates}
        for k in KERNELS:
            assert (k, "float64") in seen
            assert (k, "float32") in seen

    def test_rates_positive_and_sane(self, rates):
        for m in rates:
            assert m.gflops > 0
            assert m.seconds > 0
            assert m.gflops < 1e4  # < 10 TFLOPS on one host: sanity


class TestCalibratedModel:
    @pytest.fixture(scope="class")
    def machine(self):
        return calibrate_machine("test-host", size=128, rng=1)

    def test_structure(self, machine):
        assert machine.name == "test-host"
        assert machine.peak_single == pytest.approx(2 * machine.peak_double)
        for k in KERNELS:
            assert 0 < machine.efficiency[k] <= 1.0

    def test_usable_by_simulator(self, machine):
        run = simulate_sthosvd(
            (32,) * 3, (4,) * 3, (2, 2, 1), method="qr", machine=machine
        )
        assert run.total_seconds > 0
        assert run.machine == "test-host"

    def test_usable_by_tuner(self, machine):
        best = tune_grid((32,) * 3, (4,) * 3, 4, method="gram", machine=machine)
        assert best[0].seconds > 0

    def test_single_precision_modeled_faster(self, machine):
        t64 = simulate_sthosvd(
            (48,) * 3, (6,) * 3, (1, 1, 1), method="qr",
            precision="double", machine=machine,
        ).total_seconds
        t32 = simulate_sthosvd(
            (48,) * 3, (6,) * 3, (1, 1, 1), method="qr",
            precision="single", machine=machine,
        ).total_seconds
        assert t32 < t64
