#!/usr/bin/env python3
"""End-to-end simulation-archive workflow: per-step dumps to Tucker archive.

The combustion datasets the paper compresses are born as one file per
simulation time step.  This example walks the complete production
pipeline:

1. a fake simulation dumps per-step raw files;
2. the steps are assembled (streaming) into one natural-order tensor
   file — the paper's "use the first 100 of the available 400 time
   steps" idiom included;
3. the file is compressed out of core with automatic variant selection
   and a checkpoint directory (interruption-safe);
4. the archive is queried: a single time step is reconstructed via
   partial reconstruction, without expanding the whole tensor.

Run:  python examples/timeseries_workflow.py
"""

import os
import tempfile

from repro.cli import save_archive, load_archive
from repro.core import choose_variant, sthosvd, streaming_rel_error
from repro.data import (
    assemble_timesteps,
    hcci_surrogate,
    save_timesteps,
)
from repro.util import format_table

TOL = 1e-4

with tempfile.TemporaryDirectory() as root:
    # --- 1. the "simulation" writes per-step files -----------------------
    sim = hcci_surrogate(shape=(40, 40, 20, 48))  # last mode = 48 steps
    steps_dir = os.path.join(root, "dump")
    paths = save_timesteps(sim, steps_dir)
    print(f"simulation dumped {len(paths)} step files "
          f"({os.path.getsize(paths[0]) / 1e3:.0f} KB each)")

    # --- 2. assemble the first 32 steps, streaming -----------------------
    raw = os.path.join(root, "run.bin")
    ooc = assemble_timesteps(steps_dir, raw, steps=range(32))
    print(f"assembled tensor: {ooc.shape} "
          f"({os.path.getsize(raw) / 1e6:.1f} MB on disk)")

    # --- 3. compress out of core with auto-selected variant --------------
    variant = choose_variant(TOL)
    print(f"\ntolerance {TOL:.0e} -> variant {variant.label} "
          f"(floor {variant.floor:.1e}, margin {variant.margin:.0f}x)")
    res = sthosvd(
        ooc, precision=variant.precision, tol=TOL,
        method=variant.method, mode_order="backward",
        checkpoint_dir=os.path.join(root, "ckpt"),
    )
    err = streaming_rel_error(res.tucker.astype("double"), ooc)
    print(format_table(
        ["ranks", "compression", "est err", "actual err"],
        [[str(res.ranks), res.tucker.compression_ratio(),
          res.estimated_rel_error(), err]],
    ))

    # --- 4. archive + single-step query ----------------------------------
    arch = os.path.join(root, "archive")
    save_archive(res.tucker, arch, extra={"method": res.method})
    tucker, manifest = load_archive(arch)
    t = 17
    frame = tucker.reconstruct_slice(
        (slice(None), slice(None), slice(None), t)
    )
    print(f"\nreconstructed step {t} only: shape {frame.shape} "
          f"({frame.nbytes / 1e3:.0f} KB touched, vs "
          f"{os.path.getsize(raw) / 1e6:.1f} MB full tensor)")
    # verify against the original step file
    import numpy as np

    ref = np.fromfile(paths[t], dtype=np.float64).reshape(
        sim.shape[:3], order="F"
    )
    rel = float(
        np.linalg.norm(frame.data[:, :, :, 0] - ref) / np.linalg.norm(ref)
    )
    print(f"step-{t} relative error: {rel:.2e} (within the archive tolerance)")
    assert rel <= 5 * TOL
