"""TuckerMPI-style raw binary tensor I/O.

TuckerMPI reads/writes tensors as flat binary files of IEEE floats in
natural (mode-0-fastest) order, with dimensions supplied out of band.
We mirror that: :func:`save_raw` writes the flat buffer plus a small
JSON sidecar (``<path>.meta.json``) carrying shape and dtype so
:func:`load_raw` can reconstruct without arguments.  Loading a file
written by actual TuckerMPI works by passing ``shape``/``dtype``
explicitly.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np

from ..errors import ShapeError
from ..precision import resolve_precision
from ..tensor.dense import DenseTensor

__all__ = ["save_raw", "load_raw", "raw_files"]


def _sidecar(path: str) -> str:
    return path + ".meta.json"


def raw_files(tensor: DenseTensor, name: str) -> dict:
    """The two files of a raw tensor, as ``{file name: write(f)}``: the
    buffer in natural order under ``name``, and its JSON sidecar."""
    if not isinstance(tensor, DenseTensor):
        tensor = DenseTensor(tensor)
    meta = {"shape": list(tensor.shape), "dtype": tensor.dtype.name}
    return {
        name: tensor.flat_view().tofile,
        _sidecar(name): lambda f: f.write(json.dumps(meta).encode()),
    }


def save_raw(tensor: DenseTensor, path: str) -> None:
    """Write the tensor's buffer in natural order plus a JSON sidecar."""
    for file_path, write in raw_files(tensor, path).items():
        with open(file_path, "wb") as f:
            write(f)


def load_raw(
    path: str,
    shape: Sequence[int] | None = None,
    dtype=None,
) -> DenseTensor:
    """Read a raw tensor file.

    Without ``shape``/``dtype`` the JSON sidecar written by
    :func:`save_raw` is consulted; with them, any TuckerMPI-style flat
    binary file can be read.
    """
    if shape is None or dtype is None:
        sidecar = _sidecar(path)
        if not os.path.exists(sidecar):
            raise ShapeError(
                f"no sidecar {sidecar}; pass shape= and dtype= explicitly"
            )
        with open(sidecar) as f:
            meta = json.load(f)
        shape = meta["shape"] if shape is None else shape
        dtype = meta["dtype"] if dtype is None else dtype
    prec = resolve_precision(dtype)
    flat = np.fromfile(path, dtype=prec.dtype)
    return DenseTensor.from_flat(flat, tuple(int(s) for s in shape))
