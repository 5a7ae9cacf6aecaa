"""Checkpoint/restart for long out-of-core compressions.

Compressing a multi-terabyte dump takes hours per mode; an interrupted
run should resume after the last completed mode instead of restarting.
A checkpoint directory holds, after each completed mode: the factors and
singular values computed so far (one checksummed shard), the partially
truncated tensor (a copy of the current scratch file), and a JSON
manifest tying them together with the run's configuration — all
written through :mod:`repro.util.durable`, manifest last.
``sthosvd_out_of_core(..., checkpoint_dir=...)``
writes checkpoints as it goes; rerunning the identical call resumes.

The manifest stores the configuration fingerprint (shape, dtype, tol or
ranks, method, order, source path); resuming with a different
configuration is refused rather than silently blended.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..data.outofcore import OutOfCoreTensor
from ..util.durable import (
    commit_manifest,
    load_manifest,
    read_shard,
    write_files,
    write_shard,
)

__all__ = ["CheckpointState", "save_checkpoint", "load_checkpoint", "clear_checkpoint"]

MANIFEST = "checkpoint.json"
_SCHEMA = "repro-ooc-ckpt/2"


@dataclass
class CheckpointState:
    """Resumable state: completed steps, factors, sigmas, current tensor."""

    completed_steps: int
    factors: dict  # mode -> ndarray
    sigmas: dict  # mode -> ndarray
    ranks_chosen: dict  # mode -> int
    current: OutOfCoreTensor
    norm_sq: float


def _fingerprint(shape, dtype, tol, ranks, method, order) -> dict:
    return {
        "shape": list(int(s) for s in shape),
        "dtype": np.dtype(dtype).name,
        "tol": None if tol is None else float(tol),
        "ranks": None if ranks is None else [int(r) for r in ranks],
        "method": method,
        "order": list(int(n) for n in order),
    }


def save_checkpoint(
    directory: str,
    *,
    step: int,
    factors: dict,
    sigmas: dict,
    ranks_chosen: dict,
    current: OutOfCoreTensor,
    norm_sq: float,
    fingerprint: dict,
) -> None:
    """Persist state after completing ``step`` modes.

    The current scratch tensor is copied into the checkpoint directory
    (it will be deleted by the driver's normal scratch rotation).
    """
    os.makedirs(directory, exist_ok=True)
    tensor_file, modes_file = f"state{step}.bin", f"modes{step}.bin"

    def copy_scratch(dst):
        with open(current.path, "rb") as src:
            shutil.copyfileobj(src, dst, 1 << 24)  # streamed, 16 MiB a time

    write_files(directory, {tensor_file: copy_scratch})
    modes_check = write_shard(os.path.join(directory, modes_file),
                              {"factors": factors, "sigmas": sigmas})
    commit_manifest(os.path.join(directory, MANIFEST), {
        "completed_steps": step,
        "tensor_file": tensor_file,
        "tensor_shape": list(current.shape),
        "tensor_dtype": np.dtype(current.dtype).name,
        "modes_file": modes_file,
        "modes_check": modes_check,
        "norm_sq": norm_sq,
        "ranks_chosen": {str(k): int(v) for k, v in ranks_chosen.items()},
        "fingerprint": fingerprint,
    }, _SCHEMA)
    # Drop the previous step's files.
    for prev in (f"state{step - 1}.bin", f"modes{step - 1}.bin"):
        if os.path.exists(os.path.join(directory, prev)):
            os.unlink(os.path.join(directory, prev))


def load_checkpoint(directory: str, fingerprint: dict) -> CheckpointState | None:
    """Load a resumable state, or None when no (valid) checkpoint exists.

    Raises
    ------
    ConfigurationError
        If a checkpoint exists but was written by a different run
        configuration.
    CheckpointError
        If it was written under another on-disk schema, or its stored
        factors fail their checksum.
    """
    path = os.path.join(directory, MANIFEST)
    if not os.path.exists(path):
        return None
    manifest = load_manifest(path, _SCHEMA)
    stored = manifest["fingerprint"]
    if stored != fingerprint:
        # Name the mismatched fields — "different configuration" alone
        # sends users diffing JSON by hand.  Dtype gets a dedicated
        # message: resuming a float64 run in float32 (or vice versa)
        # silently changes the accuracy story the paper measures.
        if stored.get("dtype") != fingerprint.get("dtype"):
            version = manifest.get("library_version", "unknown")
            raise ConfigurationError(
                f"checkpoint holds {stored.get('dtype')} data (written by "
                f"repro {version}) but this run uses "
                f"{fingerprint.get('dtype')}; precision must match to "
                f"resume — clear the checkpoint or set the original dtype"
            )
        fields = sorted(
            k for k in set(stored) | set(fingerprint)
            if stored.get(k) != fingerprint.get(k)
        )
        raise ConfigurationError(
            f"checkpoint was written by a different configuration "
            f"(mismatched: {', '.join(fields)}); clear it or match the "
            f"original arguments"
        )
    tensor_dtype = manifest.get("tensor_dtype")
    if tensor_dtype is not None and tensor_dtype != stored["dtype"]:
        raise ConfigurationError(
            f"checkpoint manifest is inconsistent: tensor file is "
            f"{tensor_dtype} but the run fingerprint says {stored['dtype']}"
        )
    modes = read_shard(os.path.join(directory, manifest["modes_file"]),
                       *manifest["modes_check"])
    current = OutOfCoreTensor(
        os.path.join(directory, manifest["tensor_file"]),
        manifest["tensor_shape"],
        manifest["fingerprint"]["dtype"],
    )
    return CheckpointState(
        completed_steps=int(manifest["completed_steps"]),
        factors={int(k): v for k, v in modes["factors"].items()},
        sigmas={int(k): v for k, v in modes["sigmas"].items()},
        ranks_chosen={int(k): v for k, v in manifest["ranks_chosen"].items()},
        current=current,
        norm_sq=float(manifest["norm_sq"]),
    )


def clear_checkpoint(directory: str) -> None:
    """Delete checkpoint artifacts (no-op if absent)."""
    if not os.path.isdir(directory):
        return
    for name in os.listdir(directory):
        if (
            name == MANIFEST
            or name.endswith((".npy", ".bin"))
            or name.endswith(".tmp")  # torn write left by a crash mid-save
        ):
            os.unlink(os.path.join(directory, name))
