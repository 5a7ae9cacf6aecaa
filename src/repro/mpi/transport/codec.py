"""Shared wire codec for the cross-process transports.

Every backend that moves messages between address spaces — the
process transport (:mod:`repro.mpi.transport.procs`) and the TCP socket
transport (:mod:`repro.mpi.transport.sockets`) — speaks the same
two-layer encoding:

* The **array codec** (:func:`split_arrays` / :func:`join_arrays` /
  :func:`prepare_arrays` / :func:`materialize_array`, re-exported from
  :mod:`repro.util.arraycodec`, which the on-disk shard format shares)
  lifts ndarrays out of arbitrarily nested tuples/lists/dicts,
  replacing each with a positional :class:`ArrayRef`.  Only the
  array-free *skeleton* is pickled; raw array bytes travel out-of-band
  (a socket frame body) described by compact ``(dtype, shape, order,
  writeable)`` descriptors.  Array *data* is never pickled, and moved
  (frozen) payloads rebuild read-only, preserving the zero-copy move
  contract across the process boundary.

* The **envelope codec** (:func:`encode_envelope` /
  :func:`decode_envelope` and the exception/origin helpers) flattens
  the runtime's message metadata — move flag, byte count, sequence
  number, checksum, and the sanitizer's move-origin call site — into
  plain picklable tuples that survive any wire.

The codec is pure data-in/data-out: it owns no sockets, so the
transports (and their tests) can round-trip payloads bitwise without
standing up a world.
"""

from __future__ import annotations

import pickle

from ...errors import CommunicatorError
from ...util.arraycodec import (
    ArrayRef,
    descr_nbytes,
    join_arrays,
    materialize_array,
    prepare_arrays,
    split_arrays,
)
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
    return (env.payload, env.moved, env.nbytes, env.seq, env.checksum,
            encode_origin(env.origin))


def decode_envelope(wire: tuple | None) -> Envelope | None:
    if wire is None:
        return None
    payload, moved, nbytes, seq, checksum, origin = wire
    return Envelope(payload=payload, moved=moved,
                    nbytes=nbytes, origin=decode_origin(origin), seq=seq,
                    checksum=checksum)
