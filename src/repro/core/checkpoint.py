"""The one on-disk checkpoint format: the state of a run after step ``n``.

Two writers share it: ST-HOSVD of an out-of-core tensor
(``sthosvd(ooc, checkpoint_dir=...)``, which resumes after the last
completed mode when rerun with the identical call) and the durable
tier of :class:`repro.faults.DistributedCheckpoint` (``ckpt_dir=``, from
which a brand-new parallel world restarts).  A checkpoint of step ``n``
is, all written through :mod:`repro.util.durable`:

* **tensor shards** — the partially truncated tensor, one block per
  file, each the raw bytes of its elements in natural (mode-0-fastest)
  order.  An out-of-core run writes one shard covering the whole
  tensor, which :class:`~repro.data.outofcore.OutOfCoreTensor` opens in
  place; a parallel step writes one per rank, and its buddy writes a
  second copy;
* a **state** file — the replicated resume state (factors, singular
  values, the norm the error budget came from, ...) as a
  :func:`~repro.util.durable.write_shard` shard, beside shard 0 in each
  of its copies;
* a JSON **manifest**, committed last: one schema tag, the step and
  epoch, the run's fingerprint, the stored tensor's shape and dtype, the
  state's files, and per tensor shard its global slice coordinates, its
  files, and the ``[nbytes, crc32]`` every copy must match.

Every byte read back is checked against the manifest; a truncated or
flipped copy is passed over for the next one, and a shard with no good
copy left is a :class:`~repro.errors.CheckpointError`.  A manifest whose
fingerprint differs from the resuming run's is refused in one place,
:func:`load`, with a :class:`~repro.errors.ConfigurationError` naming
the mismatched fields.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import CheckpointError, ConfigurationError
from ..data.outofcore import OutOfCoreTensor
from ..util.durable import (
    commit_manifest,
    load_manifest,
    read_shard,
    verify_raw,
    write_raw,
    write_shard,
)

__all__ = [
    "SCHEMA",
    "CheckpointState",
    "commit",
    "load",
    "write_block",
    "read_block",
    "block_path",
    "read_state",
    "save_checkpoint",
    "load_checkpoint",
    "clear_checkpoint",
]

#: Manifest schema tag; bump on incompatible layout changes.
SCHEMA = "repro-ckpt/3"

# Out-of-core ST-HOSVD's manifest, one per checkpoint directory.
MANIFEST = "checkpoint.json"


# ----------------------------------------------------------------------
# The format
# ----------------------------------------------------------------------
def write_block(path: str, block) -> list:
    """Write one tensor block as raw natural-order bytes, atomically;
    its ``[nbytes, crc32]``.  ``block`` is an array, or the path of a
    raw file holding one, which is streamed."""
    if not isinstance(block, str):
        block = [np.ravel(block, order="F").view(np.uint8)]
    return write_raw(path, block)


def commit(path: str, *, step: int, epoch: int, fingerprint: dict,
           shape, dtype, state_files: list, shards: list,
           checks: dict) -> None:
    """Publish the manifest of ``step`` at ``path``, after every file it
    names has been written.

    ``state_files`` are the copies of the state; ``shards`` one
    ``(slices, files)`` pair per tensor block; ``checks`` the
    ``[nbytes, crc32]`` of each file as its writer measured it (the
    first copy's stands for every copy).
    """
    commit_manifest(path, {
        "step": int(step),
        "epoch": int(epoch),
        "fingerprint": fingerprint,
        "shape": [int(s) for s in shape],
        "dtype": np.dtype(dtype).name,
        "state": {"files": state_files, "check": checks[state_files[0]]},
        "shards": [
            {"slices": [[int(a), int(b)] for a, b in slices],
             "files": files, "check": checks[files[0]]}
            for slices, files in shards
        ],
    }, SCHEMA)


def load(path: str, fingerprint: dict) -> dict:
    """The manifest at ``path``, once it matches ``fingerprint``.

    Only the fields both sides record are compared (a writer that did
    not know the input, say, recorded no ``shape``); values compare as
    JSON reads them back, so pass lists, not tuples.  ``OSError`` when
    it cannot be opened, :class:`~repro.errors.CheckpointError` when it
    is not JSON or of another schema, and
    :class:`~repro.errors.ConfigurationError` when it belongs to a
    different run.
    """
    manifest = load_manifest(path, SCHEMA)
    stored = manifest["fingerprint"]
    fields = sorted(k for k in fingerprint
                    if k in stored and stored[k] != fingerprint[k])
    if fields:
        raise ConfigurationError(
            f"checkpoint {os.path.basename(path)} was written by a "
            f"different run (repro {manifest.get('library_version')}): "
            + "; ".join(f"{k} {stored[k]} (this run: {fingerprint[k]})"
                        for k in fields)
            + " — clear it or match the original arguments"
        )
    if stored.get("dtype", manifest["dtype"]) != manifest["dtype"]:
        raise ConfigurationError(
            f"checkpoint manifest is inconsistent: tensor is "
            f"{manifest['dtype']} but the run fingerprint says "
            f"{stored['dtype']}"
        )
    return manifest


def _first_good(directory: str, entry: dict, read, what: str, step):
    """``read(path, nbytes, crc32)`` of the first of ``entry``'s files
    that reads back intact."""
    errors = []
    for name in entry["files"]:
        try:
            return read(os.path.join(directory, name), *entry["check"])
        except (OSError, CheckpointError) as exc:
            errors.append(exc)
    copies = "both copies of " if len(entry["files"]) == 2 else ""
    raise CheckpointError(f"{copies}{what} (step {step}) unreadable: "
                          + "; ".join(str(exc) for exc in errors))


def block_path(directory: str, manifest: dict, index: int) -> str:
    """The first copy of tensor shard ``index`` whose bytes match the
    manifest (streamed through the CRC, never loaded)."""
    return _first_good(directory, manifest["shards"][index], verify_raw,
                       f"shard {index}", manifest["step"])


def read_block(directory: str, manifest: dict, index: int) -> np.ndarray:
    """Tensor shard ``index``, checked, as a Fortran-ordered array."""
    shape = [b - a for a, b in manifest["shards"][index]["slices"]]
    flat = np.fromfile(block_path(directory, manifest, index),
                       dtype=manifest["dtype"])
    return flat.reshape(shape, order="F")


def read_state(directory: str, manifest: dict):
    """The replicated resume state, checked.  Arrays come back
    bitwise; the rest went through JSON (tuples are lists, dict keys
    strings)."""
    return _first_good(directory, manifest["state"], read_shard, "state",
                       manifest["step"])


# ----------------------------------------------------------------------
# Out-of-core ST-HOSVD's checkpoints
# ----------------------------------------------------------------------
@dataclass
class CheckpointState:
    """Resumable state: completed steps, factors, sigmas, current tensor."""

    completed_steps: int
    factors: dict  # mode -> ndarray
    sigmas: dict  # mode -> ndarray
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


def save_checkpoint(directory: str, *, step: int, state: dict,
                    current: OutOfCoreTensor, fingerprint: dict) -> None:
    """Persist ``state`` (``factors`` and ``sigmas`` by mode, and the
    ``norm_sq`` of the budget) and ``current`` after completing
    ``step`` modes.

    The current scratch tensor is copied into the checkpoint directory
    as the one tensor shard (it will be deleted by the driver's normal
    scratch rotation), then the previous step's files are dropped.
    """
    os.makedirs(directory, exist_ok=True)
    tensor_file, state_file = f"tensor{step}.bin", f"state{step}.shard"
    checks = {
        tensor_file: write_block(os.path.join(directory, tensor_file),
                                 current.path),
        state_file: write_shard(os.path.join(directory, state_file), state),
    }
    commit(os.path.join(directory, MANIFEST), step=step, epoch=0,
           fingerprint=fingerprint, shape=current.shape, dtype=current.dtype,
           state_files=[state_file],
           shards=[([(0, s) for s in current.shape], [tensor_file])],
           checks=checks)
    for prev in (f"tensor{step - 1}.bin", f"state{step - 1}.shard"):
        if os.path.exists(os.path.join(directory, prev)):
            os.unlink(os.path.join(directory, prev))


def load_checkpoint(directory: str, fingerprint: dict) -> CheckpointState | None:
    """Load a resumable state, or None when no checkpoint exists.

    Raises
    ------
    ConfigurationError
        If a checkpoint exists but was written by a different run
        configuration.
    CheckpointError
        If it was written under another on-disk schema, or its stored
        tensor or factors fail their checksum.
    """
    path = os.path.join(directory, MANIFEST)
    if not os.path.exists(path):
        return None
    manifest = load(path, fingerprint)
    state = read_state(directory, manifest)
    current = OutOfCoreTensor(block_path(directory, manifest, 0),
                              manifest["shape"], manifest["dtype"])
    return CheckpointState(
        completed_steps=int(manifest["step"]),
        factors={int(k): v for k, v in state["factors"].items()},
        sigmas={int(k): v for k, v in state["sigmas"].items()},
        current=current,
        norm_sq=float(state["norm_sq"]),
    )


def clear_checkpoint(directory: str) -> None:
    """Delete checkpoint artifacts (no-op if absent)."""
    if not os.path.isdir(directory):
        return
    for name in os.listdir(directory):
        # (a .tmp is a torn write left by a crash mid-save)
        if name == MANIFEST or name.endswith((".bin", ".shard", ".tmp")):
            os.unlink(os.path.join(directory, name))
