"""Time-series (per-step file) dataset tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import sthosvd
from repro.data import assemble_timesteps, list_timesteps, low_rank_tensor, save_timesteps
from repro.errors import ShapeError
from repro.tensor import subtensor


@pytest.fixture(scope="module")
def steps_dir(tmp_path_factory):
    X = low_rank_tensor((10, 8, 6, 12), (3, 2, 2, 4), rng=3, noise=1e-9)
    d = str(tmp_path_factory.mktemp("ts") / "steps")
    save_timesteps(X, d)
    return X, d


class TestSaveList:
    def test_one_file_per_step(self, steps_dir):
        X, d = steps_dir
        paths, step_shape, dtype = list_timesteps(d)
        assert len(paths) == 12
        assert step_shape == (10, 8, 6)
        assert dtype == np.float64
        per_step_bytes = 10 * 8 * 6 * 8
        assert all(os.path.getsize(p) == per_step_bytes for p in paths)

    def test_step_contents_are_slabs(self, steps_dir):
        X, d = steps_dir
        paths, step_shape, dtype = list_timesteps(d)
        step3 = np.fromfile(paths[3], dtype=dtype).reshape(step_shape, order="F")
        np.testing.assert_array_equal(step3, X.data[:, :, :, 3])

    def test_non_last_mode_rejected(self, steps_dir, tmp_path):
        X, _ = steps_dir
        with pytest.raises(ShapeError):
            save_timesteps(X, str(tmp_path / "bad"), time_mode=0)

    def test_missing_step_detected(self, steps_dir, tmp_path):
        import shutil

        X, d = steps_dir
        broken = str(tmp_path / "broken")
        shutil.copytree(d, broken)
        os.unlink(os.path.join(broken, "step000005.bin"))
        with pytest.raises(ShapeError):
            list_timesteps(broken)


class TestAssemble:
    def test_full_assembly_roundtrip(self, steps_dir, tmp_path):
        X, d = steps_dir
        ooc = assemble_timesteps(d, str(tmp_path / "full.bin"))
        assert ooc.shape == X.shape
        assert ooc.to_dense() == X

    def test_subset_selection(self, steps_dir, tmp_path):
        """The paper uses the first 100 of SP's 400 steps — same idiom."""
        X, d = steps_dir
        ooc = assemble_timesteps(d, str(tmp_path / "sub.bin"), steps=range(5))
        expected = subtensor(X, (slice(None),) * 3 + (slice(0, 5),))
        assert ooc.to_dense() == expected

    def test_reordered_selection(self, steps_dir, tmp_path):
        X, d = steps_dir
        ooc = assemble_timesteps(d, str(tmp_path / "r.bin"), steps=[4, 1])
        got = ooc.to_dense()
        np.testing.assert_array_equal(got.data[:, :, :, 0], X.data[:, :, :, 4])
        np.testing.assert_array_equal(got.data[:, :, :, 1], X.data[:, :, :, 1])

    def test_empty_selection(self, steps_dir, tmp_path):
        _, d = steps_dir
        with pytest.raises(ShapeError):
            assemble_timesteps(d, str(tmp_path / "e.bin"), steps=[])

    def test_end_to_end_compression(self, steps_dir, tmp_path):
        """Assemble then compress out of core == in-memory result."""
        X, d = steps_dir
        ooc = assemble_timesteps(d, str(tmp_path / "cmp.bin"))
        res = sthosvd(ooc, tol=1e-6, max_elements=500)
        mem = sthosvd(X, tol=1e-6)
        assert res.ranks == mem.ranks
        assert res.tucker.rel_error(X) <= 1.2e-6
