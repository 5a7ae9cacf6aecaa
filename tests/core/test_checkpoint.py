"""Checkpoint/restart tests for out-of-core ``sthosvd``."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.outofcore as oocmod
from repro.core import sthosvd, tail_energy
from repro.core.checkpoint import (
    SCHEMA,
    _fingerprint,
    clear_checkpoint,
    load_checkpoint,
)
from repro.data import low_rank_tensor, save_raw
from repro.data.outofcore import OutOfCoreTensor
from repro.errors import CheckpointError, ConfigurationError


@pytest.fixture()
def raw(tmp_path):
    X = low_rank_tensor((12, 10, 8, 9), (3, 2, 2, 3), rng=11, noise=1e-9)
    path = str(tmp_path / "x.bin")
    save_raw(X, path)
    return X, path


def _crash_after(monkeypatch, n_calls):
    """Patch the LQ kernel to fail after n successful calls."""
    orig = oocmod.ooc_tensor_lq
    state = {"n": 0}

    def failing(*a, **k):
        state["n"] += 1
        if state["n"] > n_calls:
            raise RuntimeError("simulated crash")
        return orig(*a, **k)

    monkeypatch.setattr(oocmod, "ooc_tensor_lq", failing)


class TestResume:
    def test_resume_after_crash_matches_clean_run(self, raw, tmp_path, monkeypatch):
        X, path = raw
        ck = str(tmp_path / "ckpt")
        _crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        monkeypatch.undo()

        fp = _fingerprint(X.shape, np.float64, 1e-6, None, "qr", (0, 1, 2, 3))
        state = load_checkpoint(ck, fp)
        assert state is not None
        assert state.completed_steps == 2
        assert sorted(state.factors) == [0, 1]

        res = sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        mem = sthosvd(X, tol=1e-6)
        assert res.ranks == mem.ranks
        assert res.tucker.rel_error(X) <= 1.2e-6

    @pytest.mark.parametrize("precision", [None, "single"])
    def test_resumed_run_is_bitwise_the_uninterrupted_one(
            self, raw, tmp_path, monkeypatch, precision):
        """The checkpoint stores the very norm the budget was computed
        from (not its square root re-squared), so a resumed run picks
        the same ranks from the same budget and lands on the same bits."""
        # Scaled so that sqrt(norm_sq)**2 != norm_sq in both precisions.
        X = raw[0].data * 1.7
        path = str(tmp_path / "scaled.bin")
        save_raw(X, path)
        ck = str(tmp_path / "ckpt")
        kwargs = dict(tol=3e-7, precision=precision, max_elements=500)
        clean = sthosvd(OutOfCoreTensor(path, X.shape), **kwargs)

        _crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            sthosvd(OutOfCoreTensor(path, X.shape), checkpoint_dir=ck, **kwargs)
        monkeypatch.undo()

        ooc = OutOfCoreTensor(path, X.shape, np.float64, work_dtype=precision)
        fp = _fingerprint(X.shape, ooc.dtype, 3e-7, None, "qr", (0, 1, 2, 3))
        state = load_checkpoint(ck, fp)
        assert state.completed_steps == 2
        # ... and it is mode 0's spectrum energy, not a pass over the file.
        assert np.sqrt(state.norm_sq) ** 2 != state.norm_sq
        assert state.norm_sq == tail_energy(clean.sigmas[0])[0]  # bit for bit
        eps = float(np.finfo(ooc.dtype).eps)
        assert abs(state.norm_sq - ooc.norm_squared()) <= 64 * eps * state.norm_sq

        res = sthosvd(OutOfCoreTensor(path, X.shape), checkpoint_dir=ck, **kwargs)
        assert res.ranks == clean.ranks
        assert res.norm_x == clean.norm_x
        for n in range(X.ndim):
            assert res.sigmas[n].tobytes() == clean.sigmas[n].tobytes()
            assert (res.tucker.factors[n].tobytes()
                    == clean.tucker.factors[n].tobytes())
        assert res.tucker.core.data.tobytes() == clean.tucker.core.data.tobytes()

    def test_checkpoint_cleared_on_success(self, raw, tmp_path):
        X, path = raw
        ck = str(tmp_path / "ck2")
        sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-4, checkpoint_dir=ck)
        fp = _fingerprint(X.shape, np.float64, 1e-4, None, "qr", (0, 1, 2, 3))
        assert load_checkpoint(ck, fp) is None

    def test_mismatched_config_refused(self, raw, tmp_path, monkeypatch):
        X, path = raw
        ck = str(tmp_path / "ck3")
        _crash_after(monkeypatch, 1)
        with pytest.raises(RuntimeError):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        monkeypatch.undo()
        with pytest.raises(ConfigurationError):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-4, checkpoint_dir=ck)

    def test_clear_checkpoint_allows_new_config(self, raw, tmp_path, monkeypatch):
        X, path = raw
        ck = str(tmp_path / "ck4")
        _crash_after(monkeypatch, 1)
        with pytest.raises(RuntimeError):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        monkeypatch.undo()
        clear_checkpoint(ck)
        res = sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-4, checkpoint_dir=ck)
        assert res.tucker.rel_error(X) <= 2e-4

    def test_resume_preserves_backward_order(self, raw, tmp_path, monkeypatch):
        X, path = raw
        ck = str(tmp_path / "ck5")
        _crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6,
                    mode_order="backward", checkpoint_dir=ck)
        monkeypatch.undo()
        res = sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6,
                      mode_order="backward", checkpoint_dir=ck)
        mem = sthosvd(X, tol=1e-6, mode_order="backward")
        assert res.ranks == mem.ranks
        assert res.mode_order == (3, 2, 1, 0)

    def test_no_checkpoint_dir_is_unchanged_behaviour(self, raw):
        X, path = raw
        res = sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6)
        assert res.tucker.rel_error(X) <= 1.2e-6

    def test_load_missing_returns_none(self, tmp_path):
        fp = _fingerprint((2, 2), np.float64, 0.1, None, "qr", (0, 1))
        assert load_checkpoint(str(tmp_path / "nope"), fp) is None

    def test_clear_missing_is_noop(self, tmp_path):
        clear_checkpoint(str(tmp_path / "absent"))


class TestManifestHardening:
    def _interrupted(self, raw, tmp_path, monkeypatch, name):
        X, path = raw
        ck = str(tmp_path / name)
        _crash_after(monkeypatch, 1)
        with pytest.raises(RuntimeError):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        monkeypatch.undo()
        return X, path, ck

    def test_manifest_records_version_and_dtype(self, raw, tmp_path, monkeypatch):
        import json

        import repro

        _, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckv")
        with open(os.path.join(ck, "checkpoint.json")) as f:
            manifest = json.load(f)
        assert manifest["library_version"] == repro.__version__
        assert manifest["dtype"] == "float64"
        assert manifest["fingerprint"]["dtype"] == "float64"
        # One shard covering the whole tensor, named with its checksum.
        [shard] = manifest["shards"]
        assert shard["slices"] == [[0, s] for s in manifest["shape"]]
        assert shard["check"][0] == os.path.getsize(
            os.path.join(ck, shard["files"][0]))

    def test_dtype_mismatch_gets_dedicated_message(self, raw, tmp_path, monkeypatch):
        X, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckd")
        fp = _fingerprint(X.shape, np.float32, 1e-6, None, "qr", (0, 1, 2, 3))
        with pytest.raises(ConfigurationError, match="float64.*float32"):
            load_checkpoint(ck, fp)

    def test_inconsistent_tensor_dtype_refused(self, raw, tmp_path, monkeypatch):
        import json

        X, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "cki")
        mpath = os.path.join(ck, "checkpoint.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest["dtype"] = "float32"
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        fp = _fingerprint(X.shape, np.float64, 1e-6, None, "qr", (0, 1, 2, 3))
        with pytest.raises(ConfigurationError, match="inconsistent"):
            load_checkpoint(ck, fp)

    def test_no_torn_tmp_files_after_save(self, raw, tmp_path, monkeypatch):
        _, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckt")
        assert not [n for n in os.listdir(ck) if n.endswith(".tmp")]

    def test_clear_removes_torn_tmp_files(self, raw, tmp_path, monkeypatch):
        _, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckc")
        torn = os.path.join(ck, "checkpoint.json.tmp")
        with open(torn, "wb") as f:
            f.write(b"{half a mani")
        clear_checkpoint(ck)
        assert not os.path.exists(torn)
        assert not [n for n in os.listdir(ck)
                    if n.endswith((".npy", ".bin", ".tmp"))]

    def test_load_never_unpickles(self, raw, tmp_path, monkeypatch):
        import pickle

        def refuse(*args, **kwargs):
            raise AssertionError("unpickled bytes read from disk")

        X, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckp")
        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        fp = _fingerprint(X.shape, np.float64, 1e-6, None, "qr", (0, 1, 2, 3))
        state = load_checkpoint(ck, fp)
        assert state.completed_steps == 1 and sorted(state.factors) == [0]

    def test_corrupt_factors_and_foreign_schema_are_refused(
            self, raw, tmp_path, monkeypatch):
        import json

        X, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "ckx")
        fp = _fingerprint(X.shape, np.float64, 1e-6, None, "qr", (0, 1, 2, 3))
        mpath = os.path.join(ck, "checkpoint.json")
        with open(mpath) as f:
            manifest = json.load(f)

        modes = os.path.join(ck, manifest["state"]["files"][0])
        with open(modes, "rb") as f:
            blob = bytearray(f.read())
        blob[-1] ^= 0x01
        with open(modes, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(ck, fp)

        del manifest["schema"]  # what a pre-shard checkpoint looks like
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(CheckpointError, match=SCHEMA):
            load_checkpoint(ck, fp)

    def test_previous_format_is_refused_naming_both_schemas(
            self, raw, tmp_path, monkeypatch):
        import json

        X, _, ck = self._interrupted(raw, tmp_path, monkeypatch, "cko")
        mpath = os.path.join(ck, "checkpoint.json")
        with open(mpath) as f:
            manifest = json.load(f)
        with open(mpath, "w") as f:
            json.dump(dict(manifest, schema="repro-ooc-ckpt/2"), f)
        fp = _fingerprint(X.shape, np.float64, 1e-6, None, "qr", (0, 1, 2, 3))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(ck, fp)
        assert "repro-ooc-ckpt/2" in str(exc.value)
        assert SCHEMA in str(exc.value)


class TestIntegrity:
    """Every byte a resume reads is checked against the manifest."""

    @pytest.mark.parametrize("victim", ["tensor", "factors"])
    def test_flipped_byte_is_refused_on_resume(self, raw, tmp_path,
                                               monkeypatch, victim):
        import json

        X, path = raw
        ck = str(tmp_path / "ck")
        _crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
        monkeypatch.undo()
        with open(os.path.join(ck, "checkpoint.json")) as f:
            manifest = json.load(f)
        entry = (manifest["shards"][0] if victim == "tensor"
                 else manifest["state"])
        name = entry["files"][0]
        with open(os.path.join(ck, name), "rb") as f:
            blob = bytearray(f.read())
        # Same length, still parses: the exponent byte of a float64 in
        # the middle of the block, or the state's last (array) byte.
        at = len(blob) // 16 * 8 + 7 if victim == "tensor" else -1
        blob[at] ^= 0x10
        with open(os.path.join(ck, name), "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointError, match="checksum"):
            sthosvd(OutOfCoreTensor(path, X.shape), tol=1e-6, checkpoint_dir=ck)
