"""The library's one on-disk protocol for state that must survive a crash.

Out-of-core checkpoints (:mod:`repro.core.checkpoint`), the durable
tier of the distributed checkpoint (:mod:`repro.faults.checkpoint`) and
Tucker archives (:func:`repro.cli.save_archive`) all write through:

* :func:`write_files` — the one tmp + fsync + rename in the package: a
  crash or an exception *while writing* tears no file and touches
  nothing published before.
* :func:`write_shard` / :func:`read_shard` — a nest of arrays and plain
  values as ``<u32 header length><JSON header><raw array bytes>``: the
  wire format of :mod:`repro.mpi.transport.net` with JSON where the
  wire has a pickle, so reading a shard executes nothing.  (JSON's
  rules apply to the array-free part: tuples come back as lists, dict
  keys as strings, NumPy scalars as Python numbers.)  The writer
  returns ``[nbytes, crc32]`` for the caller's manifest; the reader
  verifies both, which catches the flipped bit ``np.load`` would accept.
* :func:`commit_manifest` / :func:`load_manifest` — the JSON manifest,
  written *last*: its rename makes the files written before it the
  state of record.  It is stamped with the caller's schema tag and the
  library version, and a manifest of another schema is refused by name.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, BinaryIO, Callable

import numpy as np

from ..errors import CheckpointError
from .arraycodec import (
    ArrayRef,
    descr_nbytes,
    join_arrays,
    materialize_array,
    prepare_arrays,
    split_arrays,
)

__all__ = ["write_files", "write_shard", "read_shard", "commit_manifest",
           "load_manifest"]

_HEADER_LEN = struct.Struct("<I")
_REF = "__ndarray__"


def write_files(directory: str,
                files: dict[str, Callable[[BinaryIO], None]]) -> None:
    """Write ``{name: write(f)}`` into ``directory``, all or nothing.

    Every file is written, flushed and fsynced as ``<name>.tmp`` before
    the first is renamed into place; a failure while writing removes
    the staged files and leaves the directory as it was.
    """
    staged = []
    try:
        for name, write in files.items():
            path = os.path.join(directory, name)
            staged.append((path + ".tmp", path))
            with open(path + ".tmp", "wb") as f:
                write(f)
                f.flush()
                os.fsync(f.fileno())
    except BaseException:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def _json_default(x: Any) -> Any:
    if isinstance(x, ArrayRef):
        return {_REF: x.index}
    if isinstance(x, np.generic):
        return x.item()
    raise CheckpointError(
        f"cannot store a {type(x).__name__} durably: shards hold arrays, "
        f"numbers, strings, None, and lists/tuples/dicts of those"
    )


def write_shard(path: str, obj: Any) -> list:
    """Write ``obj`` as one shard file, atomically; its ``[nbytes, crc32]``."""
    skeleton, arrays = split_arrays(obj)
    views, descrs = prepare_arrays(arrays)
    header = json.dumps({"skeleton": skeleton, "arrays": descrs},
                        default=_json_default).encode()
    chunks = [_HEADER_LEN.pack(len(header)), header, *views]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_files(os.path.dirname(path),
                {os.path.basename(path): lambda f: f.writelines(chunks)})
    return [sum(len(chunk) for chunk in chunks), crc]


def read_shard(path: str, nbytes: int, crc32: int) -> Any:
    """Read back what :func:`write_shard` wrote, given the ``[nbytes,
    crc32]`` it returned.  A missing file raises ``OSError``; one of the
    wrong length, failing its checksum or not parsing raises
    :class:`~repro.errors.CheckpointError`."""
    name = os.path.basename(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != nbytes:
            raise CheckpointError(f"shard {name} is {size} bytes, its "
                                  f"manifest says {nbytes} (truncated?)")
        try:
            head = f.read(_HEADER_LEN.size)
            head += f.read(_HEADER_LEN.unpack(head)[0])
            header = json.loads(
                head[_HEADER_LEN.size:],
                object_hook=lambda d: (ArrayRef(d[_REF])
                                       if d.keys() == {_REF} else d))
            crc, left, arrays = zlib.crc32(head), nbytes - len(head), []
            for descr in header["arrays"]:
                # A buffer per array (writable, aligned like any fresh
                # allocation), sized only once it is known to fit.
                buf = bytearray(descr_nbytes(descr))
                if len(buf) > left:
                    raise ValueError("array larger than the file")
                left -= f.readinto(buf)
                crc = zlib.crc32(buf, crc)
                arrays.append(materialize_array(descr, buf))
        except (ValueError, KeyError, TypeError, struct.error) as exc:
            raise CheckpointError(f"shard {name} is corrupt: "
                                  f"{type(exc).__name__}: {exc}") from None
    if left or crc != crc32:
        raise CheckpointError(f"shard {name} is corrupt: checksum {crc:#010x},"
                              f" its manifest says {crc32:#010x}")
    return join_arrays(header["skeleton"], arrays)


def commit_manifest(path: str, manifest: dict, schema: str) -> None:
    """Atomically publish ``manifest``, stamped with ``schema`` and the
    library version — after every file it names has been written."""
    import repro  # deferred: the package imports this module at init

    blob = json.dumps(dict(manifest, schema=schema,
                           library_version=repro.__version__),
                      indent=1).encode()
    write_files(os.path.dirname(path),
                {os.path.basename(path): lambda f: f.write(blob)})


def load_manifest(path: str, schema: str) -> dict:
    """The manifest at ``path``: ``OSError`` when it cannot be opened,
    :class:`~repro.errors.CheckpointError` when it is not JSON or was
    written under another schema."""
    name = os.path.basename(path)
    with open(path, "rb") as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise CheckpointError(f"unreadable manifest {name}: {exc}") from None
    found = manifest.get("schema") if isinstance(manifest, dict) else None
    if found != schema:
        raise CheckpointError(
            f"manifest {name} has schema {found!r}; this library reads "
            f"{schema!r} (written by another version? clear the directory "
            f"to start over)")
    return manifest
