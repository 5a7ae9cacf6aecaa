"""The shared transport codec must round-trip payloads bitwise.

Every non-threads backend (framed sockets, TCP or AF_UNIX) routes ndarray
payloads through :mod:`repro.mpi.transport.codec`: arrays are split out
of the payload skeleton, shipped as raw bytes, and re-materialized on
the far side.  Bitwise fidelity here is what makes results
backend-invariant — any byte lost or reinterpreted would break the
``sthosvd`` equivalence guarantees downstream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.transport.codec import (
    decode_envelope,
    decode_exception,
    decode_origin,
    descr_nbytes,
    encode_envelope,
    encode_exception,
    encode_origin,
    join_arrays,
    materialize_array,
    prepare_arrays,
    split_arrays,
)

PAYLOADS = [
    np.arange(24, dtype=np.float64),
    np.asfortranarray(np.random.default_rng(0).standard_normal((5, 7))),
    np.random.default_rng(1).standard_normal((3, 4, 2))[::2],  # strided
    np.array(3.5),  # zero-dim
    np.arange(6, dtype=np.complex128) * (1 + 2j),
    np.array([], dtype=np.float32),
    np.arange(10, dtype=np.int64)[::3],  # non-contiguous 1-D
]


def _roundtrip(payload):
    skeleton, arrays = split_arrays(payload)
    views, descrs = prepare_arrays(arrays)
    rebuilt = [
        materialize_array(d, bytearray(bytes(v)))
        for d, v in zip(descrs, views)
    ]
    return join_arrays(skeleton, rebuilt)


@pytest.mark.parametrize("idx", range(len(PAYLOADS)))
def test_single_array_bitwise_roundtrip(idx):
    a = PAYLOADS[idx]
    out = _roundtrip(a)
    assert isinstance(out, np.ndarray)
    assert out.dtype == a.dtype and out.shape == a.shape
    assert np.array_equal(
        np.ascontiguousarray(a).view(np.uint8).reshape(-1) if a.size else a,
        np.ascontiguousarray(out).view(np.uint8).reshape(-1) if out.size else out,
    )


def test_nested_payload_roundtrip():
    payload = {
        "x": np.arange(8.0),
        "pair": (np.ones((2, 2)), [np.zeros(3), "tag"]),
        "scalar": 7,
        "none": None,
    }
    out = _roundtrip(payload)
    assert np.array_equal(out["x"], payload["x"])
    assert np.array_equal(out["pair"][0], payload["pair"][0])
    assert np.array_equal(out["pair"][1][0], payload["pair"][1][0])
    assert out["pair"][1][1] == "tag"
    assert out["scalar"] == 7 and out["none"] is None


def test_materialized_arrays_are_writable():
    """Receivers may reduce in place; the codec must not hand out
    read-only arrays (a regression the framed-socket path once had)."""
    out = _roundtrip(np.arange(5.0))
    out += 1.0
    assert out[0] == 1.0


def test_descr_nbytes_matches_buffer():
    a = np.asfortranarray(np.random.default_rng(2).standard_normal((4, 6)))
    views, descrs = prepare_arrays([a])
    assert descr_nbytes(descrs[0]) == len(bytes(views[0])) == a.nbytes


def test_fortran_order_preserved():
    a = np.asfortranarray(np.random.default_rng(3).standard_normal((4, 5)))
    out = _roundtrip(a)
    assert out.flags["F_CONTIGUOUS"]
    assert np.array_equal(out, a)


def test_envelope_roundtrip_preserves_metadata():
    from repro.mpi.context import Envelope

    env = Envelope(payload={"a": np.arange(4.0)}, moved=True, nbytes=32,
                   origin=None, seq=9, checksum=1234)
    dec = decode_envelope(encode_envelope(env))
    assert dec.moved == env.moved
    assert dec.nbytes == env.nbytes
    assert dec.seq == env.seq and dec.checksum == env.checksum
    assert np.array_equal(dec.payload["a"], env.payload["a"])


def test_exception_roundtrip():
    from repro.errors import RankFailedError

    err = RankFailedError("rank 3 already failed (tag=7)")
    out = decode_exception(encode_exception(err))
    assert isinstance(out, RankFailedError)
    assert str(out) == str(err)


def test_origin_roundtrip():
    assert decode_origin(encode_origin(None)) is None
