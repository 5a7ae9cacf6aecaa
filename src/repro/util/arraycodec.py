"""Array codec: lift ndarrays out of nested payloads, move them as raw bytes.

:func:`map_arrays` is the one walk over a payload's nested
tuples/lists/dicts (the runtime snapshots, freezes, checksums and
corrupts payloads with it too); :func:`split_arrays` replaces every
ndarray in it with a positional :class:`ArrayRef`, leaving an
array-free *skeleton*;
:func:`prepare_arrays` turns the lifted arrays into flat byte views plus
``(dtype, shape, order, writeable)`` descriptors;
:func:`materialize_array` and :func:`join_arrays` undo both.  Shared by
the wire (:mod:`repro.mpi.transport.codec`: pickled skeleton) and the
disk (:mod:`repro.util.durable`: JSON skeleton); no sockets, no files.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "ArrayRef",
    "map_arrays",
    "split_arrays",
    "join_arrays",
    "prepare_arrays",
    "materialize_array",
    "descr_nbytes",
]


class ArrayRef:
    """Positional placeholder for an ndarray lifted out of a payload."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (ArrayRef, (self.index,))

    def __repr__(self) -> str:  # stable: payload checksums read it
        return f"ArrayRef({self.index})"


def _ring_worthy(a: np.ndarray) -> bool:
    # Object and structured dtypes cannot be moved as raw bytes; they
    # stay embedded in the (pickled) skeleton.
    return not a.dtype.hasobject and a.dtype.fields is None


_CONTAINERS = (list, tuple, dict)


def map_arrays(obj: Any, fn, kind: type = np.ndarray) -> Any:
    """``obj`` rebuilt with ``fn(x)`` in place of every ``kind`` in it.

    Recurses through tuples (named ones keep their type), lists, and
    dicts, the containers message payloads are built from; anything
    else (a list or dict subclass included) is a leaf and passes
    through untouched.  Leaves are visited depth first, in order.
    Items are mapped inside the comprehension, not by one call each:
    a payload walk runs on every message.
    """
    if isinstance(obj, kind):
        return fn(obj)
    t = type(obj)
    if t is dict:
        return dict(zip(obj, map_arrays(list(obj.values()), fn, kind)))
    if not (t is list or t is tuple
            or (isinstance(obj, tuple) and hasattr(t, "_make"))):
        return obj
    items = [fn(x) if isinstance(x, kind)
             else map_arrays(x, fn, kind) if isinstance(x, _CONTAINERS)
             else x
             for x in obj]
    if t is list:
        return items
    return tuple(items) if t is tuple else t._make(items)


def split_arrays(obj: Any) -> tuple[Any, list[np.ndarray]]:
    """Replace every ndarray in ``obj`` with an :class:`ArrayRef`.

    Walks ``obj`` as :func:`map_arrays` does; anything else passes
    through untouched and will be pickled with the skeleton.  Returns
    ``(skeleton, arrays)`` with arrays in reference order.
    """
    arrays: list[np.ndarray] = []

    def lift(a: np.ndarray):
        if not _ring_worthy(a):
            return a
        arrays.append(a)
        return ArrayRef(len(arrays) - 1)

    return map_arrays(obj, lift), arrays


def join_arrays(skeleton: Any, arrays: list) -> Any:
    """Inverse of :func:`split_arrays`: resolve every :class:`ArrayRef`."""
    return map_arrays(skeleton, lambda ref: arrays[ref.index], ArrayRef)


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
