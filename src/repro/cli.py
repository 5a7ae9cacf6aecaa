"""Command-line drivers, in the spirit of TuckerMPI's shipped binaries.

Three subcommands operate on raw natural-order tensor files (the
:mod:`repro.data.io` format, which is TuckerMPI's):

* ``compress``    — ST-HOSVD a raw file (in memory or out of core) into
  a Tucker archive directory (core + factors + manifest);
* ``reconstruct`` — expand an archive back to a raw file, optionally a
  sub-region only;
* ``info``        — inspect an archive: ranks, compression, diagnostics.

Beyond the archive commands: ``simulate``/``tune`` (model-only runs),
``trace`` (a traced — and optionally sanitized — parallel ST-HOSVD with
observability artifacts), ``chaos`` (a seeded fault matrix) and
``postmortem`` (render a crash bundle).

Usage::

    python -m repro.cli compress data.bin --shape 64 64 33 64 --tol 1e-4 \
        --method qr --precision single --out archive/
    python -m repro.cli info archive/
    python -m repro.cli reconstruct archive/ --out restored.bin
    python -m repro.cli trace --shape 32 32 32 --grid 2 2 1 \
        --tol 1e-4 --out artifacts --sanitize
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import sthosvd, validate_tucker, core_statistics
from .core.tucker import TuckerTensor
from .data.io import load_raw, raw_files, save_raw
from .tensor.dense import DenseTensor
from .util.durable import commit_manifest, write_files

__all__ = ["main", "save_archive", "load_archive"]

MANIFEST = "manifest.json"
_ARCHIVE_SCHEMA = "repro-tucker-archive-v1"


def save_archive(tucker: TuckerTensor, directory: str, extra: dict | None = None) -> None:
    """Write a Tucker archive: core.bin, factor<n>.npy, manifest.json.

    Crash-safe: every file is staged and only then renamed into place,
    the manifest last, so a failed save leaves a previous archive in
    ``directory`` as it was and a fresh directory without a manifest.
    """
    os.makedirs(directory, exist_ok=True)
    files = raw_files(tucker.core, "core.bin")
    for n, U in enumerate(tucker.factors):
        files[f"factor{n}.npy"] = lambda f, U=U: np.save(f, U)
    write_files(directory, files)
    manifest = {
        "format": _ARCHIVE_SCHEMA,
        "shape": list(tucker.shape),
        "ranks": list(tucker.ranks),
        "dtype": tucker.dtype.name,
        "compression_ratio": tucker.compression_ratio(),
    }
    if extra:
        manifest.update(extra)
    commit_manifest(os.path.join(directory, MANIFEST), manifest,
                    _ARCHIVE_SCHEMA)


def load_archive(directory: str) -> tuple[TuckerTensor, dict]:
    """Read a Tucker archive back into memory."""
    with open(os.path.join(directory, MANIFEST)) as f:
        manifest = json.load(f)
    core = load_raw(os.path.join(directory, "core.bin"))
    factors = tuple(
        np.load(os.path.join(directory, f"factor{n}.npy"))
        for n in range(len(manifest["shape"]))
    )
    return TuckerTensor(core=core, factors=factors), manifest


def _parse_slices(spec: str | None, ndim: int):
    """Parse '0:3,:,2,:' into per-mode slices."""
    if spec is None:
        return None
    parts = spec.split(",")
    if len(parts) != ndim:
        raise SystemExit(f"--region needs {ndim} comma-separated entries")
    out = []
    for p in parts:
        p = p.strip()
        try:
            if p == ":":
                out.append(slice(None))
            elif ":" in p:
                a, b = p.split(":")
                out.append(slice(int(a) if a else None, int(b) if b else None))
            else:
                out.append(int(p))
        except ValueError:
            raise SystemExit(f"--region entry {p!r} is neither an index nor "
                             "a start:stop range") from None
    return tuple(out)


def _cmd_compress(args) -> int:
    shape = tuple(args.shape)
    method, precision = args.method, args.precision
    if args.auto:
        if args.tol is None:
            raise SystemExit("--auto requires --tol")
        from .core import choose_variant

        choice = choose_variant(args.tol)
        method, precision = choice.method, str(choice.precision)
        print(f"auto-selected: {choice.label} "
              f"(floor {choice.floor:.1e}, margin {choice.margin:.0f}x)")
    if args.out_of_core:
        from .data.outofcore import OutOfCoreTensor

        X = OutOfCoreTensor(args.input, shape, args.file_dtype)
    else:
        X = load_raw(args.input, shape=shape, dtype=args.file_dtype)
    res = sthosvd(
        X, tol=args.tol, ranks=tuple(args.ranks) if args.ranks else None,
        method=method, precision=precision, mode_order=args.order,
        checkpoint_dir=args.checkpoint_dir,
        progress=_print_progress if args.verbose else None,
    )
    save_archive(
        res.tucker, args.out,
        extra={
            "method": res.method,
            "precision": str(res.precision),
            "mode_order": list(res.mode_order),
            "estimated_rel_error": res.estimated_rel_error(),
            "source": os.path.abspath(args.input),
        },
    )
    print(f"ranks:        {res.ranks}")
    print(f"compression:  {res.tucker.compression_ratio():.2f}x")
    print(f"est. error:   {res.estimated_rel_error():.3e}")
    print(f"archive:      {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    tucker, manifest = load_archive(args.archive)
    if args.region:
        region = _parse_slices(args.region, tucker.ndim)
        out = tucker.reconstruct_slice(region)
    else:
        out = tucker.reconstruct()
    save_raw(out, args.out)
    print(f"wrote {out.shape} tensor ({out.nbytes} bytes) to {args.out}")
    return 0


def _cmd_info(args) -> int:
    tucker, manifest = load_archive(args.archive)
    diag = validate_tucker(tucker)
    stats = core_statistics(tucker)
    print(f"archive:       {args.archive}")
    print(f"shape:         {manifest['shape']}")
    print(f"ranks:         {manifest['ranks']}")
    print(f"dtype:         {manifest['dtype']}")
    print(f"method:        {manifest.get('method', '?')}")
    print(f"compression:   {manifest['compression_ratio']:.2f}x")
    print(f"est. error:    {manifest.get('estimated_rel_error', float('nan')):.3e}")
    print(f"factors orth:  {diag.factors_orthonormal()}")
    print(f"core norm:     {stats['norm']:.6g}")
    print(f"core range:    [{stats['min']:.3g}, {stats['max']:.3g}]")
    return 0


def _cmd_recompress(args) -> int:
    from .core import recompress

    tucker, manifest = load_archive(args.archive)
    prior = float(manifest.get("estimated_rel_error", 0.0) or 0.0)
    out_tucker, bound = recompress(
        tucker,
        tol=args.tol,
        ranks=tuple(args.ranks) if args.ranks else None,
        prior_rel_error=prior,
    )
    save_archive(
        out_tucker, args.out,
        extra={
            "method": manifest.get("method", "qr"),
            "precision": manifest.get("precision", "double"),
            "estimated_rel_error": bound,
            "recompressed_from": os.path.abspath(args.archive),
        },
    )
    print(f"ranks:        {manifest['ranks']} -> {list(out_tucker.ranks)}")
    print(f"compression:  {manifest['compression_ratio']:.2f}x -> "
          f"{out_tucker.compression_ratio():.2f}x")
    print(f"error bound:  {bound:.3e}")
    print(f"archive:      {args.out}")
    return 0


def _machine(name: str):
    from .perf import ANDES, CASCADE_LAKE

    return ANDES if name == "andes" else CASCADE_LAKE


def _cmd_simulate(args) -> int:
    from .perf import simulate_sthosvd, simulate_memory, PHASE_LABELS

    run = simulate_sthosvd(
        tuple(args.shape), tuple(args.ranks), tuple(args.grid),
        method=args.method, precision=args.precision,
        mode_order=args.order, machine=_machine(args.machine),
    )
    mem = simulate_memory(
        tuple(args.shape), tuple(args.ranks), tuple(args.grid),
        method=args.method, precision=args.precision, mode_order=args.order,
    )
    print(f"modeled time:      {run.total_seconds:.4g} s on {run.nprocs} procs")
    print(f"sustained:         {run.gflops_per_core():.2f} GFLOPS/core")
    print(f"peak memory:       {mem.peak_gib:.3f} GiB/rank (mode {mem.peak_mode})")
    print("breakdown by phase:")
    for phase, secs in sorted(run.seconds_by_phase().items(), key=lambda kv: -kv[1]):
        label = PHASE_LABELS.get(phase, phase)
        print(f"  {label:<6} {secs:10.4g} s  ({100 * secs / run.total_seconds:5.1f} %)")
    return 0


def _print_progress(info):
    print(
        f"  mode {info['mode']} done "
        f"({info['step']}/{info['total_steps']}), "
        f"rank {info['rank']}, ranks {info['ranks']}, "
        f"{info['seconds']:.3f}s ({info['elapsed']:.1f}s elapsed)"
    )


def _trace_program(comm, X, grid, tol, ranks, method, mode_order, verbose):
    """Rank program of ``repro trace``."""
    from .dist import DistributedTensor, GridComms
    from .dist.grid import ProcessorGrid

    comms = GridComms(comm, ProcessorGrid(grid))
    dt = DistributedTensor.from_full(comms, X)
    return sthosvd(
        dt, tol=tol, ranks=ranks, method=method, mode_order=mode_order,
        progress=_print_progress if verbose else None,
    )


def _chaos_program(comm, X, tol, ranks, method, ckpt_dir=None):
    """Rank program of ``repro chaos``: checkpointed ``sthosvd``."""
    from .dist import DistributedTensor, GridComms
    from .dist.grid import ProcessorGrid
    from .faults import DistributedCheckpoint

    grid = ProcessorGrid.for_size(comm.size, X.ndim)
    dt = DistributedTensor.from_full(GridComms(comm, grid), X)
    res = sthosvd(dt, tol=tol, ranks=ranks, method=method,
                  checkpoint=DistributedCheckpoint("sthosvd",
                                                   ckpt_dir=ckpt_dir))
    tucker = res.to_tucker()  # collective: every survivor calls
    err = None
    if res.core.comm.rank == 0:
        rec = np.asarray(tucker.reconstruct().data)
        err = float(
            np.linalg.norm((rec - X).ravel()) / np.linalg.norm(X.ravel())
        )
    return {"err": err, "survivors": res.core.comm.size,
            "recoveries": sum(kind == "rank_failure"
                              for kind, _ in res.rank_failures),
            # The replay-determinism check compares this sequence across
            # replays: same fault plan, same recovery story.
            "recovery_seq": [
                (kind, detail.get("survivors"), detail.get("resumed_step"))
                for kind, detail in res.rank_failures
            ]}


def _synthetic_input(args) -> np.ndarray:
    """The ``trace``/``chaos`` input: a ``--shape`` tensor whose mode
    spectra decay geometrically by ``--decay`` (so tolerance-based
    truncation has something real to cut), seeded by ``--seed``, in
    the ``--precision`` of the run."""
    from .data.synthetic import tensor_with_mode_spectra

    spectra = [[args.decay ** k for k in range(extent)]
               for extent in args.shape]
    X = tensor_with_mode_spectra(tuple(args.shape), spectra,
                                 rng=np.random.default_rng(args.seed)).data
    return X.astype(np.float32) if args.precision == "single" else X


def _run_recorded(args, program, nprocs: int, *program_args, **options):
    """``run_spmd`` on ``--backend``, under a ``FlightRecorder`` when
    ``--postmortem-dir`` is given; a failed run names its bundle on
    stderr before the error propagates."""
    from .mpi import run_spmd

    recorder = None
    if args.postmortem_dir:
        from .obs import FlightRecorder

        recorder = FlightRecorder(postmortem_dir=args.postmortem_dir)
    try:
        return run_spmd(program, nprocs, *program_args, backend=args.backend,
                        recorder=recorder, **options)
    except Exception:
        if recorder is not None and recorder.last_postmortem_path:
            print(f"postmortem: {recorder.last_postmortem_path}",
                  file=sys.stderr)
        raise


def _cmd_trace(args) -> int:
    """Run a traced parallel ST-HOSVD on a synthetic tensor and export
    the observability artifacts (Chrome trace, phase/imbalance/comm
    tables, metrics, measured-vs-modeled diff)."""
    from .mpi.tracing import CommTrace
    from .mpi.transport import resolve_backend
    from .obs import (
        Tracer,
        chrome_trace,
        imbalance_summary,
        imbalance_table,
        model_diff_table,
        modeled_run,
        phase_table,
    )

    shape = tuple(args.shape)
    grid = tuple(args.grid)
    if len(grid) != len(shape):
        raise SystemExit(f"--grid needs {len(shape)} entries")
    nprocs = 1
    for g in grid:
        nprocs *= g
    X = _synthetic_input(args)

    tracer = Tracer()
    comm_trace = CommTrace()
    ranks = tuple(args.ranks) if args.ranks else None

    import time as _time

    start_unix = _time.time()
    res = _run_recorded(
        args, _trace_program, nprocs,
        X, grid, args.tol, ranks, args.method, args.order, bool(args.verbose),
        tracer=tracer, comm_trace=comm_trace, sanitize=args.sanitize,
    )
    result = res[0]

    os.makedirs(args.out, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = os.path.join(args.out, name)
        with open(path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        return path

    trace_path = os.path.join(args.out, "trace.json")
    with open(trace_path, "w") as f:
        json.dump(
            chrome_trace(
                tracer, comm_trace=comm_trace,
                metadata={
                    "backend": resolve_backend(args.backend),
                    "start_unix": start_unix,
                },
            ),
            f,
        )
    write("phases.txt", phase_table(tracer))
    write("imbalance.txt", imbalance_table(tracer))
    write("comm.txt", comm_trace.as_table())
    from .obs import ingest_comm_trace, ingest_flop_counter

    ingest_comm_trace(tracer.metrics, comm_trace)
    ingest_flop_counter(tracer.metrics, result.flops)
    write("metrics.txt", tracer.metrics.as_table())
    modeled = modeled_run(
        shape, result.ranks, grid, method=args.method,
        precision=args.precision, mode_order=args.order,
        machine=args.machine,
    )
    write("model_diff.txt", model_diff_table(
        tracer, modeled, title="Measured (slowest rank) vs alpha-beta-gamma model"
    ))

    summary = imbalance_summary(tracer)
    print(f"ranks:         {result.ranks}")
    print(f"est. error:    {result.estimated_rel_error():.3e}")
    print(f"spans:         {len(tracer.spans)} across {nprocs} ranks")
    print(f"critical path: {summary['critical_path_seconds']:.4g} s "
          f"(mean busy {summary['mean_busy_seconds']:.4g} s)")
    worst = max(
        summary["phases"].items(),
        key=lambda kv: kv[1]["imbalance"],
        default=(None, None),
    )
    if worst[0] is not None:
        print(f"worst phase:   {worst[0]} "
              f"(max/mean {worst[1]['imbalance']:.3f})")
    if args.sanitize:
        n = len(res.sanitizer.findings)
        print(f"sanitizer:     {'clean' if n == 0 else f'{n} finding(s)'}")
    print(f"artifacts:     {args.out}/ (trace.json, phases.txt, "
          f"imbalance.txt, comm.txt, metrics.txt, model_diff.txt)")
    return 0


def _cmd_chaos(args) -> int:
    """Seeded fault matrix over checkpointed parallel ST-HOSVD.

    Calibrates crash points from a fault-free run's operation counts,
    then replays each scenario ``--replays`` times, asserting: the run
    completes (shrinking when a rank was killed), the reconstruction
    error stays within ``--error-factor`` of the fault-free error, and
    the fired-fault trace is identical on every replay (determinism).
    """
    from .faults import CrashRule, FaultPlan, KernelFaultRule, MessageFaultRule
    from .util.tables import format_table

    nprocs = args.procs
    X = _synthetic_input(args)
    ranks = tuple(args.ranks) if args.ranks else None

    def launch(plan, ckpt_dir=None):
        return _run_recorded(args, _chaos_program, nprocs,
                             X, args.tol, ranks, args.method, ckpt_dir,
                             faults=plan, resilience=True)

    # Fault-free baseline: the reference error, and per-rank operation
    # counts that place injected crashes mid-run (after the first
    # checkpoint exists, before the final mode completes).
    base = launch(FaultPlan(seed=args.seed))
    base_err = next(v["err"] for v in base.values if v and v["err"] is not None)
    ops = base.faults.ops_per_rank()
    print(f"baseline: rel error {base_err:.3e}, "
          f"ops/rank {[ops.get(r, 0) for r in range(nprocs)]}")

    scenarios = [
        (f"crash-rank{r}", FaultPlan(
            seed=args.seed,
            crashes=(CrashRule(rank=r, at_op=max(2, ops.get(r, 2) // 2)),),
        ))
        for r in range(nprocs)
    ]
    scenarios += [
        ("drop-1pct", FaultPlan(
            seed=args.seed,
            messages=(MessageFaultRule(kind="drop", prob=args.drop),),
        )),
        ("kernel-nan", FaultPlan(
            seed=args.seed,
            kernels=(KernelFaultRule(
                kernel="gesvd" if args.method == "qr" else "eigh",
                call_index=0, kind="nan",
            ),),
        )),
        ("crash+drop", FaultPlan(
            seed=args.seed,
            crashes=(CrashRule(
                rank=nprocs - 1,
                at_op=max(2, ops.get(nprocs - 1, 2) // 2),
            ),),
            messages=(MessageFaultRule(kind="drop", prob=args.drop),),
        )),
    ]

    rows = []
    failures = 0
    for name, plan in scenarios:
        keys, errs, survivors, recoveries, fired = [], [], None, None, 0
        recovery_seqs = []
        for replay in range(args.replays):
            ckpt_dir = None
            if args.ckpt_dir:
                # Fresh directory per replay: replays must be identical,
                # not resume each other's checkpoints.
                ckpt_dir = os.path.join(args.ckpt_dir, f"{name}-r{replay}")
            res = launch(plan, ckpt_dir)
            keys.append(res.faults.trace_key())
            fired = len(res.faults.trace)
            done = [v for v in res.values if v is not None]
            errs.append(next(v["err"] for v in done if v["err"] is not None))
            survivors = done[0]["survivors"]
            recoveries = done[0]["recoveries"]
            recovery_seqs.append(done[0]["recovery_seq"])
        # Replaying the same fault trace must yield the identical
        # recovery sequence (same survivors, same resumed steps) — not
        # just the same fired faults.
        deterministic = (
            all(k == keys[0] for k in keys)
            and all(s == recovery_seqs[0] for s in recovery_seqs)
        )
        ratio = errs[0] / base_err if base_err else 1.0
        ok = deterministic and ratio <= args.error_factor
        failures += not ok
        rows.append([
            name, fired, survivors, recoveries,
            f"{errs[0]:.3e}", f"{ratio:.3f}",
            "yes" if deterministic else "NO",
            "ok" if ok else "FAIL",
        ])
    print(format_table(
        ["scenario", "faults", "survivors", "recoveries", "rel error",
         "vs baseline", "deterministic", "status"],
        rows, title=f"chaos matrix ({args.replays} replays each)",
    ))
    if failures:
        print(f"chaos: {failures} scenario(s) FAILED")
        return 1
    print(f"chaos: all scenarios ok ({len(scenarios)} scenarios x "
          f"{args.replays} replays)")
    return 0


def _cmd_postmortem(args) -> int:
    """Render a postmortem bundle written by a crashed run."""
    from .obs import load_postmortem, render_postmortem

    bundle = load_postmortem(args.bundle)
    print(render_postmortem(bundle, events=args.events))
    return 0


def _cmd_tune(args) -> int:
    from .perf import tune_grid

    limit = None if args.memory_limit_gib is None else args.memory_limit_gib * 2**30
    configs = tune_grid(
        tuple(args.shape), tuple(args.ranks), args.procs,
        method=args.method, precision=args.precision,
        machine=_machine(args.machine), memory_limit_bytes=limit,
        top_k=args.top,
    )
    print(f"{'grid':>20} {'ordering':>9} {'modeled s':>11} {'GiB/rank':>9}")
    for c in configs:
        print(
            f"{'x'.join(map(str, c.grid)):>20} {c.mode_order:>9} "
            f"{c.seconds:11.4g} {c.peak_bytes / 2**30:9.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="ST-HOSVD a raw tensor file")
    c.add_argument("input")
    c.add_argument("--shape", type=int, nargs="+", required=True)
    c.add_argument("--file-dtype", default="double", choices=["single", "double"],
                   help="precision the file is stored in")
    c.add_argument("--precision", default="double", choices=["single", "double"],
                   help="working precision of the computation")
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--ranks", type=int, nargs="+", default=None)
    c.add_argument("--method", default="qr",
                   choices=["qr", "gram", "gram-mixed", "randomized"])
    c.add_argument("--auto", action="store_true",
                   help="pick method and precision from --tol (paper Sec. 5)")
    c.add_argument("--order", default="forward", choices=["forward", "backward"])
    c.add_argument("--out", required=True)
    c.add_argument("--out-of-core", action="store_true",
                   help="stream from disk instead of loading the tensor")
    c.add_argument("--checkpoint-dir", default=None,
                   help="resumable checkpoints for --out-of-core runs")
    c.add_argument("--verbose", action="store_true",
                   help="per-mode progress")
    c.set_defaults(fn=_cmd_compress)

    r = sub.add_parser("reconstruct", help="expand an archive to a raw file")
    r.add_argument("archive")
    r.add_argument("--out", required=True)
    r.add_argument("--region", default=None,
                   help="per-mode slices, e.g. '0:3,:,2,:' (partial reconstruction)")
    r.set_defaults(fn=_cmd_reconstruct)

    i = sub.add_parser("info", help="inspect an archive")
    i.add_argument("archive")
    i.set_defaults(fn=_cmd_info)

    rc = sub.add_parser("recompress",
                        help="re-truncate an archive (no original data needed)")
    rc.add_argument("archive")
    rc.add_argument("--tol", type=float, default=None)
    rc.add_argument("--ranks", type=int, nargs="+", default=None)
    rc.add_argument("--out", required=True)
    rc.set_defaults(fn=_cmd_recompress)

    s = sub.add_parser("simulate", help="model a parallel run (no computation)")
    s.add_argument("--shape", type=int, nargs="+", required=True)
    s.add_argument("--ranks", type=int, nargs="+", required=True)
    s.add_argument("--grid", type=int, nargs="+", required=True)
    s.add_argument("--method", default="qr", choices=["qr", "gram"])
    s.add_argument("--precision", default="double", choices=["single", "double"])
    s.add_argument("--order", default="forward", choices=["forward", "backward"])
    s.add_argument("--machine", default="andes", choices=["andes", "cascade-lake"])
    s.set_defaults(fn=_cmd_simulate)

    tr = sub.add_parser(
        "trace",
        help="run a traced parallel ST-HOSVD and export observability artifacts",
    )
    tr.add_argument("--shape", type=int, nargs="+", required=True)
    tr.add_argument("--grid", type=int, nargs="+", required=True,
                    help="processor grid (one entry per mode; product = nprocs)")
    tr.add_argument("--tol", type=float, default=None)
    tr.add_argument("--ranks", type=int, nargs="+", default=None)
    tr.add_argument("--method", default="qr", choices=["qr", "gram"])
    tr.add_argument("--precision", default="double", choices=["single", "double"])
    tr.add_argument("--order", default="forward", choices=["forward", "backward"])
    tr.add_argument("--machine", default="andes", choices=["andes", "cascade-lake"],
                    help="machine model for the measured-vs-modeled diff")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--decay", type=float, default=0.7,
                    help="geometric decay of the synthetic mode spectra")
    tr.add_argument("--out", required=True,
                    help="directory for trace.json and the report tables")
    tr.add_argument("--verbose", action="store_true",
                    help="per-mode progress events from rank 0")
    tr.add_argument("--backend", default=None,
                    choices=["threads", "procs", "sockets"],
                    help="SPMD transport (default: REPRO_SPMD_BACKEND or threads)")
    tr.add_argument("--sanitize", action="store_true",
                    help="run under the SPMD sanitizer (collective matching, "
                         "deadlock detection, move enforcement)")
    tr.add_argument("--postmortem-dir", default=None,
                    help="enable the flight recorder; on a crash/deadlock "
                         "write a postmortem bundle here")
    tr.set_defaults(fn=_cmd_trace)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault matrix over checkpointed parallel "
             "ST-HOSVD (crashes, drops, kernel NaN), with replay "
             "determinism checks",
    )
    ch.add_argument("--shape", type=int, nargs="+", required=True)
    ch.add_argument("--procs", type=int, required=True)
    ch.add_argument("--tol", type=float, default=None)
    ch.add_argument("--ranks", type=int, nargs="+", default=None)
    ch.add_argument("--method", default="qr", choices=["qr", "gram"])
    ch.add_argument("--precision", default="double", choices=["single", "double"])
    ch.add_argument("--seed", type=int, default=0,
                    help="fault plan seed (and synthetic data seed)")
    ch.add_argument("--decay", type=float, default=0.7,
                    help="geometric decay of the synthetic mode spectra")
    ch.add_argument("--drop", type=float, default=0.01,
                    help="message drop probability for the drop scenarios")
    ch.add_argument("--replays", type=int, default=3,
                    help="runs per scenario; fault traces must be identical")
    ch.add_argument("--error-factor", type=float, default=10.0,
                    help="max allowed reconstruction error relative to the "
                         "fault-free run")
    ch.add_argument("--ckpt-dir", default=None,
                    help="durable checkpoint tier: mirror checkpoints to "
                         "per-replay subdirectories of this path")
    ch.add_argument("--backend", default=None,
                    choices=["threads", "procs", "sockets"],
                    help="SPMD transport (default: REPRO_SPMD_BACKEND or threads)")
    ch.add_argument("--postmortem-dir", default=None,
                    help="enable the flight recorder; if a scenario escapes "
                         "recovery and aborts the world, write a postmortem "
                         "bundle here")
    ch.set_defaults(fn=_cmd_chaos)

    pm = sub.add_parser(
        "postmortem",
        help="render a crash postmortem bundle (written by runs launched "
             "with a FlightRecorder(postmortem_dir=...) or --postmortem-dir)",
    )
    pm.add_argument("bundle", help="path to a postmortem-*.json bundle")
    pm.add_argument("--events", type=int, default=10,
                    help="trailing flight-recorder events shown per rank "
                         "(0 disables the per-rank tails)")
    pm.set_defaults(fn=_cmd_postmortem)

    t = sub.add_parser("tune", help="search processor grids via the model")
    t.add_argument("--shape", type=int, nargs="+", required=True)
    t.add_argument("--ranks", type=int, nargs="+", required=True)
    t.add_argument("--procs", type=int, required=True)
    t.add_argument("--method", default="qr", choices=["qr", "gram"])
    t.add_argument("--precision", default="double", choices=["single", "double"])
    t.add_argument("--machine", default="andes", choices=["andes", "cascade-lake"])
    t.add_argument("--memory-limit-gib", type=float, default=None)
    t.add_argument("--top", type=int, default=5)
    t.set_defaults(fn=_cmd_tune)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("compress", "recompress", "trace", "chaos") and (
        args.tol is None
    ) == (args.ranks is None):
        raise SystemExit(f"{args.command}: pass exactly one of --tol / --ranks")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
