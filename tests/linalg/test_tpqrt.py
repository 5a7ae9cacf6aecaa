"""Tests for the structured triangle-on-pentagon QR kernel."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ReproError, ShapeError
from repro.instrument import FlopCounter
from repro.linalg import tpqrt, tpqrt_reduce_triangles
from repro.linalg.flops import tpqrt_flops


def _gram(R):
    return R.T @ R


class TestRectangular:
    @pytest.mark.parametrize("n,m", [(4, 7), (4, 4), (4, 1), (1, 5), (6, 20)])
    def test_matches_dense_qr(self, rng, n, m):
        R = np.triu(rng.standard_normal((n, n)))
        B = rng.standard_normal((m, n))
        ref = np.linalg.qr(np.vstack([R, B]))[1]
        out = tpqrt(R.copy(), B.copy(), structure="rect")
        np.testing.assert_allclose(_gram(out), _gram(ref), atol=1e-10)

    def test_r_stays_upper_triangular(self, rng):
        R = np.triu(rng.standard_normal((5, 5)))
        B = rng.standard_normal((3, 5))
        out = tpqrt(R.copy(), B.copy())
        np.testing.assert_array_equal(np.tril(out, -1), 0)

    def test_b_annihilated_in_place(self, rng):
        R = np.triu(rng.standard_normal((4, 4)))
        B = rng.standard_normal((3, 4))
        tpqrt(R, B)
        np.testing.assert_array_equal(B, 0)

    def test_keep_reflectors(self, rng):
        R = np.triu(rng.standard_normal((4, 4)))
        B = rng.standard_normal((3, 4))
        tpqrt(R, B, keep_reflectors=True)
        assert np.any(B != 0)

    def test_zero_b_is_noop(self, rng):
        R = np.triu(rng.standard_normal((4, 4)))
        out = tpqrt(R.copy(), np.zeros((3, 4)))
        np.testing.assert_array_equal(out, R)

    def test_float32(self, rng):
        R = np.triu(rng.standard_normal((4, 4))).astype(np.float32)
        B = rng.standard_normal((5, 4)).astype(np.float32)
        out = tpqrt(R.copy(), B.copy())
        assert out.dtype == np.float32
        ref = np.linalg.qr(np.vstack([R, B]).astype(np.float64))[1]
        np.testing.assert_allclose(_gram(out), _gram(ref), rtol=1e-3, atol=1e-4)


class TestTriangular:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_matches_dense_qr(self, rng, n):
        R1 = np.triu(rng.standard_normal((n, n)))
        R2 = np.triu(rng.standard_normal((n, n)))
        ref = np.linalg.qr(np.vstack([R1, R2]))[1]
        out = tpqrt_reduce_triangles(R1, R2)
        np.testing.assert_allclose(_gram(out), _gram(ref), atol=1e-10)

    def test_inputs_not_modified(self, rng):
        R1 = np.triu(rng.standard_normal((4, 4)))
        R2 = np.triu(rng.standard_normal((4, 4)))
        c1, c2 = R1.copy(), R2.copy()
        tpqrt_reduce_triangles(R1, R2)
        np.testing.assert_array_equal(R1, c1)
        np.testing.assert_array_equal(R2, c2)

    def test_deterministic(self, rng):
        R1 = np.triu(rng.standard_normal((5, 5)))
        R2 = np.triu(rng.standard_normal((5, 5)))
        a = tpqrt_reduce_triangles(R1, R2)
        b = tpqrt_reduce_triangles(R1, R2)
        np.testing.assert_array_equal(a, b)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            tpqrt_reduce_triangles(np.zeros((3, 3)), np.zeros((4, 4)))


class TestValidation:
    def test_r_must_be_square(self):
        with pytest.raises(ShapeError):
            tpqrt(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            tpqrt(np.zeros((3, 3)), np.zeros((2, 4)))

    def test_dtype_mismatch(self):
        with pytest.raises(ShapeError):
            tpqrt(np.zeros((3, 3)), np.zeros((2, 3), dtype=np.float32))

    def test_tri_structure_must_be_square(self):
        with pytest.raises(ShapeError):
            tpqrt(np.zeros((3, 3)), np.zeros((2, 3)), structure="tri")

    def test_unknown_structure(self):
        with pytest.raises(ShapeError):
            tpqrt(np.zeros((3, 3)), np.zeros((3, 3)), structure="hexagonal")

    @pytest.mark.parametrize("backend", ["lapak", "blocked", ""])
    def test_unknown_backend(self, rng, backend):
        """A misspelt backend is refused, not run as the Python loop."""
        R, B = np.triu(rng.standard_normal((3, 3))), rng.standard_normal((2, 3))
        keep = R.copy(), B.copy()
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            tpqrt(R, B, backend=backend)
        np.testing.assert_array_equal(R, keep[0])
        np.testing.assert_array_equal(B, keep[1])


class TestFlops:
    def test_counter_uses_structured_count(self, rng):
        n = 6
        R = np.triu(rng.standard_normal((n, n)))
        B = np.triu(rng.standard_normal((n, n)))
        c = FlopCounter()
        tpqrt(R, B, structure="tri", counter=c)
        assert c.total == tpqrt_flops(n, n, n)
        # Structured triangular reduction must be cheaper than rectangular.
        assert tpqrt_flops(n, n, n) < tpqrt_flops(n, n, 0)

    def test_flops_validation(self):
        with pytest.raises(ValueError):
            tpqrt_flops(4, 3, 5)


@given(
    n=st.integers(1, 8),
    m=st.integers(1, 10),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_tpqrt_gram_invariant_property(n, m, seed):
    """[R; B]'s Gram is preserved by the structured elimination."""
    rng = np.random.default_rng(seed)
    R = np.triu(rng.standard_normal((n, n)))
    B = rng.standard_normal((m, n))
    stacked_gram = R.T @ R + B.T @ B
    out = tpqrt(R.copy(), B.copy())
    np.testing.assert_allclose(out.T @ out, stacked_gram, atol=1e-9)


def _case(rng, n, m, structure, dtype, order):
    R = np.triu(rng.standard_normal((n, n))) + np.tril(np.full((n, n), 7.0), -1)
    B = rng.standard_normal((m, n))
    if structure == "tri":
        B = np.triu(B) + np.tril(np.full((n, n), 9.0), -1)
    return (np.array(R, dtype=dtype, order=order),
            np.array(B, dtype=dtype, order=order))


class TestLapackKernel:
    """LAPACK ``{s,d}tpqrt`` against the Python column loop."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "structure,n,m",
        [("rect", 6, 40), ("rect", 6, 6), ("rect", 9, 4), ("rect", 5, 0),
         ("rect", 20, 33), ("tri", 1, 1), ("tri", 7, 7), ("tri", 20, 20)],
    )
    def test_agrees_with_householder(self, rng, structure, n, m, dtype, order):
        R, B = _case(rng, n, m, structure, dtype, order)
        outs = {}
        for backend in ("lapack", "householder"):
            r, b = R.copy(order=order), B.copy(order=order)
            out = tpqrt(r, b, structure=structure, backend=backend)
            assert out is r and r.dtype == dtype
            # R's strict lower triangle is ignored and left alone.
            np.testing.assert_array_equal(np.tril(r, -1), np.tril(R, -1))
            if structure == "rect":
                np.testing.assert_array_equal(b, 0)
            else:  # only the upper triangle of a triangular B is eliminated
                np.testing.assert_array_equal(np.triu(b), 0)
                np.testing.assert_array_equal(np.tril(b, -1), np.tril(B, -1))
            outs[backend] = np.triu(r).astype(np.float64)
        tol = 50 * np.finfo(dtype).eps * max(n, m)
        scale = max(1.0, float(np.abs(_gram(outs["householder"])).max()))
        np.testing.assert_allclose(
            _gram(outs["lapack"]), _gram(outs["householder"]), atol=tol * scale)
        stacked = np.vstack([np.triu(R), np.triu(B) if structure == "tri" else B])
        np.testing.assert_allclose(
            _gram(outs["lapack"]), _gram(stacked.astype(np.float64)), atol=tol * scale)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("structure", ["rect", "tri"])
    def test_keep_reflectors(self, rng, structure, order):
        R, B = _case(rng, 5, 5, structure, np.float64, order)
        b = B.copy(order=order)
        tpqrt(R.copy(order=order), b, structure=structure, keep_reflectors=True)
        assert np.any(np.triu(b) != 0)
        if structure == "tri":
            np.testing.assert_array_equal(np.tril(b, -1), np.tril(B, -1))

    @pytest.mark.parametrize("backend", ["lapack", "householder"])
    def test_all_zero_b_leaves_r_bitwise(self, rng, backend):
        R = np.triu(rng.standard_normal((6, 6))).astype(np.float32)
        R[2, 2] = -R[2, 2]  # a negative diagonal must survive too
        out = tpqrt(R.copy(), np.zeros((9, 6), dtype=np.float32), backend=backend)
        np.testing.assert_array_equal(out, R)

    def test_nonzero_info_raises(self, rng, monkeypatch):
        from repro.linalg import _capi

        def failing(*args):  # the C routine's last argument is ``int *info``
            args[-1]._obj.value = -4

        monkeypatch.setitem(_capi.ROUTINES, "dtpqrt", failing)
        with pytest.raises(ReproError, match="dtpqrt failed with info=-4"):
            tpqrt(np.eye(3), rng.standard_normal((4, 3)))

    def test_reduce_triangles_is_c_contiguous_upper(self, rng):
        R1 = rng.standard_normal((6, 6))  # lower parts must be ignored
        R2 = rng.standard_normal((6, 6))
        out = tpqrt_reduce_triangles(R1, R2)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(np.tril(out, -1), 0)
        ref = np.linalg.qr(np.vstack([np.triu(R1), np.triu(R2)]))[1]
        np.testing.assert_allclose(_gram(out), _gram(ref), atol=1e-10)


def _tpqrt_flops_by_column(n: int, m: int, l: int) -> int:
    """The per-column sum ``tpqrt_flops`` states in closed form."""
    total = 0
    for j in range(n):
        rows = m if l == 0 else (m - l) + min(j + 1, l)
        # reflector formation ~3*rows, trailing update 4*rows per column
        total += 3 * rows + 4 * rows * (n - j - 1)
    return total


class TestFlopFormula:
    def test_closed_form_equals_the_column_sum(self):
        sizes = [0, 1, 2, 3, 5, 8, 16, 33, 64, 257]
        checked = 0
        for n in sizes:
            for m in sizes:
                top = min(m, n)
                for l in sorted({0, 1, top // 2, top - 1, top} & set(range(top + 1))):
                    got = tpqrt_flops(n, m, l)
                    assert isinstance(got, int)
                    assert got == _tpqrt_flops_by_column(n, m, l), (n, m, l)
                    checked += 1
        assert checked > 300

    def test_numpy_integers_and_big_shapes_stay_exact(self):
        n, m = np.int32(2048), np.int32(70000)
        assert tpqrt_flops(n, m, 0) == _tpqrt_flops_by_column(2048, 70000, 0)
        assert tpqrt_flops(n, n, n) == _tpqrt_flops_by_column(2048, 2048, 2048)

    @pytest.mark.parametrize("l", [-1, 4])
    def test_pentagon_height_is_checked(self, l):
        with pytest.raises(ValueError):
            tpqrt_flops(3, 5, l)
