"""The on-disk protocol (repro.util.durable): atomic files, shards, manifests."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.util.durable import (
    commit_manifest,
    load_manifest,
    read_shard,
    write_files,
    write_shard,
)


class TestWriteFiles:
    def test_failure_while_writing_publishes_nothing(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old a")

        def boom(f):
            f.write(b"half of new b")
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_files(str(tmp_path), {"a": lambda f: f.write(b"new a"),
                                        "b": boom})
        assert sorted(os.listdir(tmp_path)) == ["a"]  # no b, no *.tmp
        assert (tmp_path / "a").read_bytes() == b"old a"

    def test_success_publishes_every_file(self, tmp_path):
        write_files(str(tmp_path), {"a": lambda f: f.write(b"1"),
                                    "b": lambda f: f.write(b"2")})
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]
        assert (tmp_path / "b").read_bytes() == b"2"


class TestShards:
    OBJ = {
        "name": "ckpt", "step": 3, "ok": True, "nothing": None,
        "norm": 0.1 + 0.2, "inf": float("inf"),
        "shape": (4, 3), "slices": ((0, 2), (1, 3)),
        "block": np.asfortranarray(np.arange(12.0).reshape(4, 3)),
        "meta": {
            "factors": [None, np.eye(3, dtype=np.float32)],
            "sigmas": {0: np.arange(3.0), 2: np.zeros(0)},
            "scalar": np.float32(1.1),
            "count": np.int64(7),
            "notes": ["mode0:retry"],
        },
    }

    def test_round_trip_keeps_arrays_bitwise_and_values_as_json(self, tmp_path):
        path = str(tmp_path / "x.shard")
        check = write_shard(path, self.OBJ)
        assert check[0] == os.path.getsize(path)
        back = read_shard(path, *check)

        block = back["block"]
        assert block.tobytes(order="A") == self.OBJ["block"].tobytes(order="A")
        assert block.dtype == np.float64 and block.shape == (4, 3)
        assert block.flags.f_contiguous and block.flags.writeable
        meta = back["meta"]
        assert meta["factors"][0] is None
        assert meta["factors"][1].dtype == np.float32
        assert meta["sigmas"]["2"].shape == (0,)
        # The array-free part follows JSON: exact floats, tuples as
        # lists, keys as strings, NumPy scalars as Python numbers.
        assert back["norm"] == 0.1 + 0.2 and back["inf"] == float("inf")
        assert back["ok"] is True and back["nothing"] is None
        assert back["shape"] == [4, 3] and back["slices"] == [[0, 2], [1, 3]]
        assert sorted(meta["sigmas"]) == ["0", "2"]
        assert meta["scalar"] == float(np.float32(1.1))
        assert meta["count"] == 7 and type(meta["count"]) is int
        assert meta["notes"] == ["mode0:retry"]

    def test_shard_file_holds_json_and_raw_bytes_only(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(str(path), self.OBJ)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[:4], "little")
        header = json.loads(blob[4:4 + header_len])
        assert [d[0] for d in header["arrays"]] == ["<f8", "<f4", "<f8", "<f8"]
        assert blob[4 + header_len:].startswith(
            self.OBJ["block"].tobytes(order="F"))

    @pytest.mark.parametrize("damage", ["truncate", "grow", "flip-array",
                                        "flip-header", "flip-length"])
    def test_any_damage_is_refused(self, tmp_path, damage):
        path = tmp_path / "x.shard"
        check = write_shard(str(path), self.OBJ)
        blob = bytearray(path.read_bytes())
        if damage == "truncate":
            blob = blob[:-1]
        elif damage == "grow":
            blob += b"\0"
        elif damage == "flip-array":
            blob[-3] ^= 0x40
        elif damage == "flip-header":
            blob[10] ^= 0x01
        else:
            blob[1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="x.shard"):
            read_shard(str(path), *check)

    def test_missing_shard_is_an_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_shard(str(tmp_path / "absent.shard"), 10, 0)

    def test_unstorable_values_are_refused_at_write_time(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot store a set"):
            write_shard(str(tmp_path / "x.shard"), {"bad": {1, 2}})
        assert os.listdir(tmp_path) == []


class TestManifests:
    def test_commit_stamps_schema_and_version(self, tmp_path):
        import repro

        path = str(tmp_path / "m.json")
        commit_manifest(path, {"step": 1}, "repro-test/1")
        assert load_manifest(path, "repro-test/1") == {
            "step": 1, "schema": "repro-test/1",
            "library_version": repro.__version__}
        assert os.listdir(tmp_path) == ["m.json"]

    def test_foreign_schema_and_garbage_are_refused(self, tmp_path):
        path = str(tmp_path / "m.json")
        commit_manifest(path, {}, "repro-test/1")
        with pytest.raises(CheckpointError) as exc:
            load_manifest(path, "repro-test/2")
        assert "repro-test/1" in str(exc.value)
        assert "repro-test/2" in str(exc.value)

        (tmp_path / "m.json").write_bytes(b"{half a mani")
        with pytest.raises(CheckpointError, match="unreadable manifest"):
            load_manifest(path, "repro-test/1")
        with pytest.raises(FileNotFoundError):
            load_manifest(str(tmp_path / "absent.json"), "repro-test/1")
