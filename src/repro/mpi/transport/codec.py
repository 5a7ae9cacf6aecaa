"""Shared wire codec for the cross-process transports.

Every backend that moves messages between address spaces — the
process transport (:mod:`repro.mpi.transport.procs`) and the TCP socket
transport (:mod:`repro.mpi.transport.sockets`) — speaks the same
two-layer encoding:

* The **array codec** (:func:`split_arrays` / :func:`join_arrays` /
  :func:`prepare_arrays` / :func:`materialize_array`) lifts ndarrays
  out of arbitrarily nested tuples/lists/dicts, replacing each with a
  positional :class:`ArrayRef`.  Only the array-free *skeleton* is
  pickled; raw array bytes travel out-of-band (a socket frame body)
  described by compact ``(dtype, shape, order,
  writeable)`` descriptors.  Array *data* is never pickled, and moved
  (frozen) payloads rebuild read-only, preserving the zero-copy move
  contract across the process boundary.

* The **envelope codec** (:func:`encode_envelope` /
  :func:`decode_envelope` and the exception/origin helpers) flattens
  the runtime's message metadata — send time, move flag, sequence
  number, checksum, and the sanitizer's move-origin call site — into
  plain picklable tuples that survive any wire.

The codec is pure data-in/data-out: it owns no sockets, so the
transports (and their tests) can round-trip payloads bitwise without
standing up a world.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from ...errors import CommunicatorError
from ..context import Envelope

__all__ = [
    "ArrayRef",
    "split_arrays",
    "join_arrays",
    "prepare_arrays",
    "materialize_array",
    "descr_nbytes",
    "encode_exception",
    "decode_exception",
    "encode_origin",
    "decode_origin",
    "encode_envelope",
    "decode_envelope",
]


class ArrayRef:
    """Positional placeholder for an ndarray lifted out of a payload."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (ArrayRef, (self.index,))


def _ring_worthy(a: np.ndarray) -> bool:
    # Object and structured dtypes cannot be moved as raw bytes; they
    # stay embedded in the (pickled) skeleton.
    return not a.dtype.hasobject and a.dtype.fields is None


def split_arrays(obj: Any) -> tuple[Any, list[np.ndarray]]:
    """Replace every ndarray in ``obj`` with an :class:`ArrayRef`.

    Recurses through tuples, lists, and dicts (the containers message
    payloads are built from); anything else passes through untouched
    and will be pickled with the skeleton.  Returns ``(skeleton,
    arrays)`` with arrays in reference order.
    """
    arrays: list[np.ndarray] = []

    def enc(x):
        if isinstance(x, np.ndarray) and _ring_worthy(x):
            arrays.append(x)
            return ArrayRef(len(arrays) - 1)
        t = type(x)
        if t is tuple:
            return tuple(enc(i) for i in x)
        if t is list:
            return [enc(i) for i in x]
        if t is dict:
            return {k: enc(v) for k, v in x.items()}
        return x

    return enc(obj), arrays


def join_arrays(skeleton: Any, arrays: list) -> Any:
    """Inverse of :func:`split_arrays`: resolve every :class:`ArrayRef`."""

    def dec(x):
        if isinstance(x, ArrayRef):
            return arrays[x.index]
        t = type(x)
        if t is tuple:
            return tuple(dec(i) for i in x)
        if t is list:
            return [dec(i) for i in x]
        if t is dict:
            return {k: dec(v) for k, v in x.items()}
        return x

    return dec(skeleton)


def prepare_arrays(arrays: list[np.ndarray]) -> tuple[list, list[tuple]]:
    """Byte views + wire descriptors for a batch of lifted arrays.

    Returns ``(views, descrs)`` where each view is a flat ``uint8``
    view over the array's (contiguous) data, and each descriptor is
    ``(dtype_str, shape, order, writeable)`` — everything the receiver
    needs to rebuild the array from raw bytes.  Non-contiguous arrays
    are compacted first (the runtime's payloads are contiguous C- or
    F-order in practice, so this copy almost never fires).
    """
    views = []
    descrs = []
    for a in arrays:
        order = "F" if (a.flags.f_contiguous and not a.flags.c_contiguous) else "C"
        if not (a.flags.c_contiguous or a.flags.f_contiguous):
            a = np.ascontiguousarray(a)
            order = "C"
        views.append(a.reshape(-1, order="A").view(np.uint8))
        descrs.append(
            (a.dtype.str, a.shape, order, bool(a.flags.writeable))
        )
    return views, descrs


def materialize_array(descr: tuple, data) -> np.ndarray:
    """Rebuild one array from its wire descriptor and raw bytes.

    The result is backed by ``data`` directly (one copy total, out of
    the wire); payloads that were *moved* (frozen) on the sender side
    arrive read-only, preserving move semantics across processes.
    """
    dtype_str, shape, order, writeable = descr
    arr = np.frombuffer(data, dtype=np.dtype(dtype_str)).reshape(
        shape, order=order
    )
    if not writeable:
        arr.flags.writeable = False
    return arr


def descr_nbytes(descr: tuple) -> int:
    """Raw byte length of the array a wire descriptor describes."""
    return int(
        np.dtype(descr[0]).itemsize * int(np.prod(descr[1], dtype=np.int64))
    )


# ----------------------------------------------------------------------
# Envelope metadata codecs
# ----------------------------------------------------------------------
def encode_exception(exc: BaseException) -> tuple:
    """``(pickle-or-None, type name, message)`` — survives unpicklables."""
    try:
        blob = pickle.dumps(exc)
    except Exception:
        blob = None
    return (blob, type(exc).__name__, str(exc))


def decode_exception(enc: tuple) -> BaseException:
    blob, type_name, message = enc
    if blob is not None:
        try:
            return pickle.loads(blob)
        except Exception:
            pass
    # Fallback: rebuild by class name from the library's error taxonomy
    # so except-clauses still match even when the payload (a diagnostic
    # with live object references) could not cross the boundary.
    from ... import errors as errors_mod

    cls = getattr(errors_mod, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        cls = CommunicatorError
    return cls(message)


def encode_origin(origin) -> tuple | None:
    """Flatten a MoveOrigin to plain strings/ints for the wire.

    The provenance of a moved (or copied) send — sender rank, operation,
    and the originating call site — so receive-side move registration
    and finalize-time leak reports name the *real* send site even when
    the sender's address space is a different process.
    """
    if origin is None:
        return None
    site = origin.site
    return (
        origin.rank, origin.op,
        None if site is None else (site.file, site.line, site.function),
    )


def decode_origin(wire: tuple | None):
    if wire is None:
        return None
    from ...sanitize.diagnostics import CallSite
    from ...sanitize.sanitizer import MoveOrigin

    rank, op, site = wire
    return MoveOrigin(
        rank=rank, op=op, site=None if site is None else CallSite(*site)
    )


def encode_envelope(env: Envelope | None) -> tuple | None:
    """Envelope as wire tuple; origin travels as a flattened call site."""
    if env is None:
        return None
    return (env.payload, env.send_time, env.moved, env.nbytes, env.seq,
            env.checksum, encode_origin(env.origin))


def decode_envelope(wire: tuple | None) -> Envelope | None:
    if wire is None:
        return None
    payload, send_time, moved, nbytes, seq, checksum, origin = wire
    return Envelope(payload=payload, send_time=send_time, moved=moved,
                    nbytes=nbytes, origin=decode_origin(origin), seq=seq,
                    checksum=checksum)
