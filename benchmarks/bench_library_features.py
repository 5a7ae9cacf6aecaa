"""Reports for the library-completeness features beyond the paper's figures.

* HOOI refinement quality vs ST-HOSVD at equal ranks (quantifies the
  sqrt(N)-quasi-optimality gap the paper cites from [28]);
* classic HOSVD cost vs ST-HOSVD (the value of sequential truncation);
* out-of-core streaming ST-HOSVD vs the in-memory driver (identical
  ranks, error within the tolerance);
* the memory model across the strong-scaling grids (how many nodes the
  paper's datasets *require* before speed matters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import hooi, hosvd, sthosvd
from repro.data import (
    OutOfCoreTensor, geometric_spectrum, save_raw, tensor_with_mode_spectra)
from repro.perf import simulate_memory, strong_scaling_grid, STRONG_SCALING_GRIDS
from repro.util import format_table


@pytest.fixture(scope="module")
def coupled_tensor():
    shape = (26, 24, 22)
    spectra = [geometric_spectrum(s, 1.0, 1e-3) for s in shape]
    return tensor_with_mode_spectra(shape, spectra, rng=31)


class TestHooiQuality:
    RANKS = (6, 6, 6)

    def test_report_quality(self, coupled_tensor, write_report):
        def compute():
            st = sthosvd(coupled_tensor, ranks=self.RANKS)
            cl = hosvd(coupled_tensor, ranks=self.RANKS)
            ho = hooi(coupled_tensor, ranks=self.RANKS, max_iters=15)
            return {
                "ST-HOSVD": (st.tucker.rel_error(coupled_tensor), st.flops.total),
                "HOSVD": (cl.tucker.rel_error(coupled_tensor), cl.flops.total),
                "HOOI": (ho.tucker.rel_error(coupled_tensor), ho.flops.total),
            }

        res = compute()
        rows = [[k, err, fl / 1e6] for k, (err, fl) in res.items()]
        write_report(
            "feature_hooi_quality",
            format_table(
                ["algorithm", "rel error", "Mflop"],
                rows,
                title=f"Fixed ranks {self.RANKS}: refinement quality vs cost",
            ),
        )
        # HOOI never loses to its ST-HOSVD initialization; ST-HOSVD is
        # cheaper than classic HOSVD.
        assert res["HOOI"][0] <= res["ST-HOSVD"][0] * (1 + 1e-9)
        assert res["ST-HOSVD"][1] < res["HOSVD"][1]
        # All errors within the sqrt(N) quasi-optimality factor of HOOI's.
        n_modes = 3
        assert res["ST-HOSVD"][0] <= np.sqrt(n_modes) * res["HOOI"][0] * 1.05


class TestOutOfCore:
    SHAPE = (36, 32, 28, 24)

    @pytest.fixture(scope="class")
    def spilled(self, tmp_path_factory):
        spectra = [geometric_spectrum(s, 1.0, 1e-8) for s in self.SHAPE]
        X = tensor_with_mode_spectra(self.SHAPE, spectra, rng=32)
        path = str(tmp_path_factory.mktemp("oocbench") / "x.bin")
        save_raw(X, path)
        return X, path

    def test_report_equivalence(self, spilled, write_report):
        X, path = spilled

        def compute():
            mem = sthosvd(X, tol=1e-4)
            ooc = sthosvd(OutOfCoreTensor(path, self.SHAPE), tol=1e-4,
                          max_elements=1 << 15)
            return mem, ooc

        mem, ooc = compute()
        write_report(
            "feature_out_of_core",
            format_table(
                ["driver", "ranks", "rel error"],
                [
                    ["in-memory", str(mem.ranks), mem.tucker.rel_error(X)],
                    ["out-of-core", str(ooc.ranks), ooc.tucker.rel_error(X)],
                ],
                title=f"Streaming vs in-memory ST-HOSVD, {self.SHAPE} @ tol 1e-4",
            ),
        )
        assert ooc.ranks == mem.ranks
        assert ooc.tucker.rel_error(X) <= 1.5e-4


class TestMemoryModel:
    def test_report_dataset_memory(self, write_report):
        """How many Andes nodes each paper dataset needs just to fit
        (256 GB/node), cf. 'we need 50 nodes on Andes' for SP."""
        from repro.data import PAPER_SHAPES

        cases = {
            "hcci": (PAPER_SHAPES["hcci"], (120, 120, 20, 120), (16, 8, 1, 1)),
            "sp": (PAPER_SHAPES["sp"], (60, 60, 60, 9, 25), (40, 20, 2, 1, 1)),
            "video": (PAPER_SHAPES["video"], (200, 200, 3, 200), (16, 8, 1, 1)),
        }

        def compute():
            rows = []
            for name, (shape, ranks, grid) in cases.items():
                m = simulate_memory(shape, ranks, grid, mode_order="backward")
                nprocs = int(np.prod(grid))
                total_gib = m.peak_gib * nprocs
                nodes_needed = total_gib / 256.0
                rows.append([name, nprocs, m.peak_gib, total_gib, nodes_needed])
            return rows

        rows = compute()
        write_report(
            "feature_memory_model",
            format_table(
                ["dataset", "procs", "GiB/rank", "total GiB", "min 256GB nodes"],
                rows,
                title="Modeled memory high-water marks (paper datasets)",
            ),
        )
        by = {r[0]: r for r in rows}
        # SP is the memory monster of the three (the paper needs 50 nodes).
        assert by["sp"][3] > by["hcci"][3]
        assert by["sp"][3] > 1000  # > 1 TiB total

    def test_report_strong_scaling_memory(self, write_report):
        def compute():
            rows = []
            for cores in sorted(STRONG_SCALING_GRIDS):
                m = simulate_memory(
                    (256,) * 4, (32,) * 4, strong_scaling_grid(cores, "qr"),
                    mode_order="backward",
                )
                rows.append([cores, m.peak_gib])
            return rows

        rows = compute()
        write_report(
            "feature_strong_scaling_memory",
            format_table(
                ["cores", "GiB/rank"], rows,
                title="Strong scaling: per-rank memory, 256^4 double",
            ),
        )
        # Memory per rank must shrink as cores grow (that is the point
        # of distributing a fixed tensor).
        peaks = [r[1] for r in rows]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))
