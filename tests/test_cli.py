"""CLI driver tests (compress / reconstruct / info, archive round-trips)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import load_archive, main, save_archive
from repro.core import sthosvd
from repro.data import load_raw, save_raw, low_rank_tensor


@pytest.fixture(scope="module")
def raw_file(tmp_path_factory):
    X = low_rank_tensor((16, 14, 12), (3, 2, 4), rng=5, noise=1e-8)
    path = str(tmp_path_factory.mktemp("cli") / "data.bin")
    save_raw(X, path)
    return X, path


class TestArchive:
    def test_roundtrip(self, raw_file, tmp_path):
        X, _ = raw_file
        res = sthosvd(X, tol=1e-4)
        d = str(tmp_path / "arch")
        save_archive(res.tucker, d, extra={"method": "qr"})
        back, manifest = load_archive(d)
        assert back.ranks == res.tucker.ranks
        assert manifest["method"] == "qr"
        assert back.reconstruct().allclose(res.tucker.reconstruct(), rtol=1e-12)

    def test_manifest_contents(self, raw_file, tmp_path):
        X, _ = raw_file
        res = sthosvd(X, tol=1e-4)
        d = str(tmp_path / "arch")
        save_archive(res.tucker, d)
        with open(os.path.join(d, "manifest.json")) as f:
            m = json.load(f)
        assert m["shape"] == [16, 14, 12]
        assert m["format"].startswith("repro-tucker-archive")

    def test_failed_save_leaves_no_archive_and_harms_no_archive(
            self, raw_file, tmp_path, monkeypatch):
        """A failure while a factor is being written commits nothing:
        a fresh directory gets no manifest, and a previous archive in
        the same directory stays loadable and bitwise what it was."""
        X, _ = raw_file
        old, new = sthosvd(X, tol=1e-4).tucker, sthosvd(X, tol=1e-2).tucker
        d = tmp_path / "arch"
        save_archive(old, str(d), extra={"method": "qr"})
        before = {p.name: p.read_bytes() for p in d.iterdir()}

        real_save = np.save

        def failing_save(f, arr, *a, **k):
            if arr is new.factors[1]:
                raise OSError("disk full")
            return real_save(f, arr, *a, **k)

        monkeypatch.setattr(np, "save", failing_save)
        for target in (d, tmp_path / "fresh"):
            with pytest.raises(OSError, match="disk full"):
                save_archive(new, str(target))
        monkeypatch.undo()

        assert not (tmp_path / "fresh" / "manifest.json").exists()
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before
        back, manifest = load_archive(str(d))
        assert manifest["method"] == "qr" and back.ranks == old.ranks
        assert back.core.data.tobytes() == old.core.data.tobytes()


class TestCompressCommand:
    def test_tol_compress_and_info(self, raw_file, tmp_path, capsys):
        X, path = raw_file
        arch = str(tmp_path / "a1")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--tol", "1e-4", "--out", arch])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ranks:" in out and "compression:" in out
        rc = main(["info", arch])
        assert rc == 0
        out = capsys.readouterr().out
        assert "factors orth:  True" in out

    def test_ranks_compress(self, raw_file, tmp_path, capsys):
        X, path = raw_file
        arch = str(tmp_path / "a2")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--ranks", "3", "2", "4", "--method", "gram", "--out", arch])
        assert rc == 0
        tucker, manifest = load_archive(arch)
        assert tuple(manifest["ranks"]) == (3, 2, 4)

    def test_out_of_core_flag(self, raw_file, tmp_path):
        X, path = raw_file
        arch = str(tmp_path / "a3")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--tol", "1e-4", "--out", arch, "--out-of-core"])
        assert rc == 0
        tucker, _ = load_archive(arch)
        assert tucker.rel_error(X) <= 2e-4

    def test_requires_exactly_one_of_tol_ranks(self, raw_file, tmp_path):
        _, path = raw_file
        with pytest.raises(SystemExit):
            main(["compress", path, "--shape", "16", "14", "12",
                  "--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit):
            main(["compress", path, "--shape", "16", "14", "12",
                  "--tol", "1e-3", "--ranks", "1", "1", "1",
                  "--out", str(tmp_path / "x")])


class TestReconstructCommand:
    @pytest.fixture()
    def archive(self, raw_file, tmp_path):
        X, path = raw_file
        arch = str(tmp_path / "arch")
        main(["compress", path, "--shape", "16", "14", "12",
              "--tol", "1e-5", "--out", arch])
        return X, arch

    def test_full_reconstruction(self, archive, tmp_path, capsys):
        X, arch = archive
        out = str(tmp_path / "full.bin")
        rc = main(["reconstruct", arch, "--out", out])
        assert rc == 0
        back = load_raw(out)
        assert back.shape == X.shape
        err = np.linalg.norm(back.data - X.data) / X.norm()
        assert err <= 2e-5

    def test_region_reconstruction(self, archive, tmp_path):
        X, arch = archive
        out = str(tmp_path / "part.bin")
        rc = main(["reconstruct", arch, "--out", out, "--region", "0:4,:,7"])
        assert rc == 0
        back = load_raw(out)
        assert back.shape == (4, 14, 1)
        np.testing.assert_allclose(
            back.data[:, :, 0], X.data[0:4, :, 7], atol=1e-4
        )

    def test_bad_region_spec(self, archive, tmp_path):
        _, arch = archive
        with pytest.raises(SystemExit):
            main(["reconstruct", arch, "--out", str(tmp_path / "x.bin"),
                  "--region", "0:4,:"])

    @pytest.mark.parametrize("entry", ["0:4:2", "x"])
    def test_malformed_region_entry(self, archive, tmp_path, entry):
        _, arch = archive
        with pytest.raises(SystemExit, match=f"entry '{entry}'"):
            main(["reconstruct", arch, "--out", str(tmp_path / "x.bin"),
                  "--region", f"{entry},:,7"])


class TestAutoAndPrecisionFlags:
    def test_auto_selects_variant(self, raw_file, tmp_path, capsys):
        _, path = raw_file
        arch = str(tmp_path / "auto")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--tol", "1e-4", "--auto", "--out", arch])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto-selected: qr-single" in out
        _, manifest = load_archive(arch)
        assert manifest["method"] == "qr"
        assert manifest["precision"] == "single"

    def test_auto_requires_tol(self, raw_file, tmp_path):
        _, path = raw_file
        with pytest.raises(SystemExit):
            main(["compress", path, "--shape", "16", "14", "12",
                  "--ranks", "2", "2", "2", "--auto",
                  "--out", str(tmp_path / "x")])

    def test_single_pipeline_on_double_file(self, raw_file, tmp_path):
        X, path = raw_file
        arch = str(tmp_path / "sp")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--tol", "1e-3", "--precision", "single",
                   "--method", "qr", "--out", arch, "--out-of-core"])
        assert rc == 0
        tucker, manifest = load_archive(arch)
        assert manifest["dtype"] == "float32"
        assert tucker.astype("double").rel_error(
            X.astype("single").astype("double")) <= 2e-3

    def test_checkpointed_ooc_compress(self, raw_file, tmp_path):
        _, path = raw_file
        arch = str(tmp_path / "ck")
        rc = main(["compress", path, "--shape", "16", "14", "12",
                   "--tol", "1e-4", "--out", arch, "--out-of-core",
                   "--checkpoint-dir", str(tmp_path / "ckdir")])
        assert rc == 0


class TestSimulateAndTuneCommands:
    def test_simulate_prints_breakdown(self, capsys):
        rc = main(["simulate", "--shape", "64", "64", "64", "64",
                   "--ranks", "8", "8", "8", "8", "--grid", "2", "2", "1", "1",
                   "--method", "qr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled time" in out
        assert "GFLOPS/core" in out
        assert "LQ" in out and "TTM" in out

    def test_simulate_gram_shows_gram_phase(self, capsys):
        rc = main(["simulate", "--shape", "64", "64", "64",
                   "--ranks", "8", "8", "8", "--grid", "2", "2", "1",
                   "--method", "gram", "--precision", "single"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Gram" in out

    def test_tune_lists_configs(self, capsys):
        rc = main(["tune", "--shape", "64", "64", "64", "64",
                   "--ranks", "8", "8", "8", "8", "--procs", "16",
                   "--top", "4"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5  # header + 4 configs
        assert "ordering" in lines[0]

    def test_tune_with_memory_limit(self, capsys):
        rc = main(["tune", "--shape", "64", "64", "64", "64",
                   "--ranks", "8", "8", "8", "8", "--procs", "8",
                   "--memory-limit-gib", "4", "--top", "2"])
        assert rc == 0


class TestRecompressCommand:
    def test_recompress_archive(self, raw_file, tmp_path, capsys):
        X, path = raw_file
        arch = str(tmp_path / "master")
        main(["compress", path, "--shape", "16", "14", "12",
              "--tol", "1e-6", "--out", arch])
        capsys.readouterr()
        out_arch = str(tmp_path / "loose")
        rc = main(["recompress", arch, "--tol", "1e-2", "--out", out_arch])
        assert rc == 0
        out = capsys.readouterr().out
        assert "error bound" in out
        tucker, manifest = load_archive(out_arch)
        assert "recompressed_from" in manifest
        assert all(a <= b for a, b in zip(
            tucker.ranks, load_archive(arch)[0].ranks))
        assert tucker.rel_error(X) <= 1.1 * manifest["estimated_rel_error"] + 1e-2

    def test_recompress_requires_tol_or_ranks(self, raw_file, tmp_path):
        X, path = raw_file
        arch = str(tmp_path / "m2")
        main(["compress", path, "--shape", "16", "14", "12",
              "--tol", "1e-5", "--out", arch])
        with pytest.raises(SystemExit):
            main(["recompress", arch, "--out", str(tmp_path / "x")])


class TestTraceCommand:
    def test_trace_writes_all_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "traceout")
        rc = main(["trace", "--shape", "16", "16", "16",
                   "--grid", "2", "2", "1", "--tol", "1e-4",
                   "--out", out_dir])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "critical path" in printed
        assert sorted(os.listdir(out_dir)) == [
            "comm.txt", "imbalance.txt", "model_diff.txt", "phases.txt",
            "trace.json"]
        with open(os.path.join(out_dir, "comm.txt")) as f:
            comm = f.read().splitlines()
        assert any(line.lstrip().startswith("alltoall:pairwise")
                   for line in comm)
        assert comm[-1].startswith("total")

        with open(os.path.join(out_dir, "trace.json")) as f:
            doc = json.load(f)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in xs} == {0, 1, 2, 3}
        names = {e["name"] for e in xs}
        for required in ("redistribute", "lq", "svd", "ttm"):
            assert required in names
        assert any(n.startswith("comm.") for n in names)

    def test_trace_requires_exactly_one_of_tol_ranks(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--shape", "8", "8", "8",
                  "--grid", "2", "1", "1",
                  "--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit):
            main(["trace", "--shape", "8", "8", "8",
                  "--grid", "2", "1", "1", "--tol", "1e-4",
                  "--ranks", "2", "2", "2",
                  "--out", str(tmp_path / "y")])


class TestSanitizedTraceCommand:
    def test_trace_sanitize_reports_clean(self, tmp_path, capsys):
        rc = main(["trace", "--shape", "12", "12", "12",
                   "--grid", "2", "1", "1", "--tol", "1e-4",
                   "--out", str(tmp_path / "san"), "--sanitize"])
        assert rc == 0
        assert "sanitizer:     clean" in capsys.readouterr().out

    def test_trace_without_sanitize_says_nothing(self, tmp_path, capsys):
        rc = main(["trace", "--shape", "12", "12", "12",
                   "--grid", "2", "1", "1", "--tol", "1e-4",
                   "--out", str(tmp_path / "plain")])
        assert rc == 0
        assert "sanitizer" not in capsys.readouterr().out


class TestChaosCommand:
    def test_small_matrix_all_ok(self, capsys):
        rc = main(["chaos", "--shape", "8", "6", "4", "--procs", "2",
                   "--ranks", "3", "2", "2", "--replays", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "chaos matrix" in printed
        assert "all scenarios ok" in printed
        assert "FAIL" not in printed
        # One crash scenario per rank plus drop / kernel-nan / crash+drop.
        for name in ("crash-rank0", "crash-rank1", "drop-1pct",
                     "kernel-nan", "crash+drop"):
            assert name in printed

    def test_requires_exactly_one_of_tol_ranks(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--shape", "8", "6", "4", "--procs", "2"])
        with pytest.raises(SystemExit):
            main(["chaos", "--shape", "8", "6", "4", "--procs", "2",
                  "--tol", "1e-4", "--ranks", "3", "2", "2"])


class TestOneLaunchMode:
    """Workers are forked; the spawn-by-address-book launch is gone."""

    @pytest.mark.parametrize("command", ["trace", "chaos"])
    def test_hosts_flag_is_an_argparse_error(self, command, tmp_path, capsys):
        argv = {"trace": ["--grid", "2", "1", "1", "--out", str(tmp_path)],
                "chaos": ["--procs", "2"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--shape", "8", "8", "8", "--tol", "1e-4", *argv,
                  "--backend", "sockets", "--hosts", "a", "b"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --hosts a b" in capsys.readouterr().err

    def test_socket_transport_takes_no_hosts(self):
        import inspect

        from repro.mpi.transport import SocketTransport

        with pytest.raises(TypeError, match="hosts"):
            SocketTransport(hosts=["a", "b"])
        assert list(inspect.signature(SocketTransport.__init__).parameters) == [
            "self", "host", "port", "connect_policy", "heartbeat_interval",
            "liveness_timeout"]


class TestPostmortemCommand:
    def test_renders_the_bundle_of_an_injected_crash(self, tmp_path, capsys):
        from repro.errors import RankFailedError
        from repro.faults import CrashRule, FaultPlan
        from repro.mpi import run_spmd
        from repro.obs import FlightRecorder

        def prog(comm):
            comm.send(b"x", dest=(comm.rank + 1) % comm.size, tag=5)
            comm.recv(source=(comm.rank - 1) % comm.size, tag=5)
            comm.barrier()

        rec = FlightRecorder(postmortem_dir=str(tmp_path))
        with pytest.raises(RankFailedError):
            run_spmd(prog, 3, recorder=rec, recv_timeout=30.0,
                     faults=FaultPlan(seed=7,
                                      crashes=(CrashRule(rank=0, at_op=2),)))
        assert rec.last_postmortem_path is not None

        assert main(["postmortem", rec.last_postmortem_path]) == 0
        printed = capsys.readouterr().out
        assert "ROOT CAUSE" in printed and "rank 0 already failed" in printed
        assert "fault trace (1 fired)" in printed
        assert "[0, 2, 'crash', []]" in printed
        assert "rank 0 — last" in printed  # the per-rank event tails

        assert main(["postmortem", rec.last_postmortem_path,
                     "--events", "0"]) == 0
        assert "— last" not in capsys.readouterr().out
