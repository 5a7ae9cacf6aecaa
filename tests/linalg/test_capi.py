"""The C-pointer LAPACK/BLAS kernels: same bits as SciPy's f2py wrappers,
no shared scratch between threads, and no GIL held during a call."""

from __future__ import annotations

import sys
import threading
import types

import numpy as np
import pytest
import scipy
import scipy.linalg
from scipy.linalg import cython_lapack, lapack

from repro.errors import ConfigurationError, ConvergenceError, ReproError
from repro.linalg import _capi, gelq, left_svd_of_triangle, tpqrt
from repro.linalg import qr as QR
from repro.linalg.tpqrt import _inner_block

DTYPES = [(np.float32, "s"), (np.float64, "d")]


class TestSameBitsAsF2py:
    @pytest.mark.parametrize("dtype,prefix", DTYPES)
    @pytest.mark.parametrize("m,n", [(300, 24), (24, 24), (7, 24), (24, 1), (1, 1)])
    def test_geqrf(self, rng, dtype, prefix, m, n):
        """The flat tree's first fold: ``tpqrt`` into a zero triangle is
        f2py ``geqrf``'s R (row signs aside, to rounding: a zero diagonal
        picks the reflector's sign)."""
        A = np.asfortranarray(rng.standard_normal((m, n)).astype(dtype))
        ref, _, _, info = getattr(lapack, prefix + "geqrf")(A.copy(order="F"))
        assert info == 0
        R = np.zeros((n, n), dtype=dtype, order="F")
        _capi.tpqrt(0, _inner_block(n), R, A, _capi.Workspace())
        k = min(m, n)
        np.testing.assert_array_equal(np.tril(R, -1), 0)
        tol = 50 * np.finfo(dtype).eps * np.abs(ref).max()
        np.testing.assert_allclose(np.abs(R[:k]), np.abs(np.triu(ref[:k])), atol=tol)

    @pytest.mark.parametrize("dtype,prefix", DTYPES)
    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize(
        "structure,m,n",
        [("rect", 300, 24), ("rect", 7, 24), ("rect", 40, 1), ("rect", 0, 5),
         ("rect", 500, 96), ("tri", 24, 24), ("tri", 1, 1), ("tri", 96, 96)],
    )
    @pytest.mark.parametrize("layout", ["F", "C", "strided"])
    def test_tpqrt(self, rng, dtype, prefix, keep, structure, m, n, layout):
        R0 = np.triu(rng.standard_normal((n, n))).astype(dtype)
        B0 = rng.standard_normal((m, n)).astype(dtype)
        l = n if structure == "tri" else 0
        f2py = getattr(lapack, prefix + "tpqrt")
        ref_r, ref_b = R0, B0
        if m:
            ref_r, ref_b, _, info = f2py(l, _inner_block(n), R0, B0)
            assert info == 0
        if not keep:
            ref_b = np.tril(B0, -1) if l else np.zeros_like(B0)

        def lay(M):
            if layout == "strided":  # every other row and column of a larger array
                big = np.zeros((2 * M.shape[0], 2 * M.shape[1]), dtype=dtype)
                big[::2, ::2] = M
                return big[::2, ::2]
            return M.copy(order=layout)

        R, B = lay(R0), lay(B0)
        out = tpqrt(R, B, structure=structure, keep_reflectors=keep)
        assert out is R
        np.testing.assert_array_equal(R, ref_r)
        np.testing.assert_array_equal(B, ref_b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "m,n", [(64, 64), (33, 33), (10, 7), (7, 10), (400, 12), (12, 400), (1, 1), (130, 130)])
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_gesvd_without_right_vectors(self, rng, dtype, m, n, layout):
        """JOBVT='N' changes what is formed, not sigma or U: the same bits
        (hence the same sign convention) as SciPy's JOBU='S', JOBVT='S'."""
        L = np.tril(rng.standard_normal((m, n))).astype(dtype).copy(order=layout)
        U0, s0, _ = scipy.linalg.svd(
            L, full_matrices=False, lapack_driver="gesvd", check_finite=False)
        before = L.copy()
        U, s = left_svd_of_triangle(L)
        np.testing.assert_array_equal(L, before)  # the caller's matrix survives
        assert U.dtype == s.dtype == dtype and U.shape == (m, min(m, n))
        np.testing.assert_array_equal(s, s0)
        np.testing.assert_array_equal(U, U0)

    def test_gesvd_edge_cases(self, rng):
        ws = _capi.Workspace()
        U, s = _capi.gesvd(np.empty((5, 0), order="F"), ws)
        assert U.shape == (5, 0) and s.shape == (0,)
        U, s = left_svd_of_triangle(np.arange(6).reshape(3, 2))  # integers widen
        assert U.dtype == np.float64 and s[0] > s[1] > 0
        bad = np.asfortranarray(np.tril(rng.standard_normal((6, 6))))
        bad[3, 2] = np.nan
        with pytest.raises(ConvergenceError, match="dgesvd"):
            _capi.gesvd(bad, ws)
        with pytest.raises(ReproError, match="Fortran-ordered"):
            _capi.gesvd(np.ones((3, 2)), ws)

    def test_inner_block_rule(self):
        assert [_inner_block(n) for n in (1, 5, 8, 33, 64, 65, 128, 512)] == [
            1, 5, 8, 8, 8, 16, 16, 16]


class TestArgumentChecks:
    def test_layout_dtype_and_shape_are_checked_before_the_pointer_is_used(self, rng):
        ws = _capi.Workspace()
        R = np.asfortranarray(np.triu(rng.standard_normal((4, 4))))
        B = np.asfortranarray(rng.standard_normal((6, 4)))
        with pytest.raises(ReproError, match="Fortran-ordered"):
            _capi.tpqrt(0, 2, R, np.ascontiguousarray(B), ws)
        with pytest.raises(ReproError, match="Fortran-ordered"):
            _capi.tpqrt(0, 2, R, B.astype(np.float32), ws)
        with pytest.raises(ReproError, match="do not fit"):
            _capi.tpqrt(0, 2, R, B[:, :3], ws)
        with pytest.raises(ReproError, match="do not fit"):
            _capi.tpqrt(0, 5, R, B, ws)
        frozen = B.copy(order="F")
        frozen.flags.writeable = False
        with pytest.raises(ReproError, match="writable"):
            _capi.tpqrt(0, 2, R, frozen, ws)
        with pytest.raises(ReproError, match="float32 or float64"):
            _capi.gesvd(np.asfortranarray(np.ones((3, 2), dtype=np.int64)), ws)
        with pytest.raises(ReproError, match="contiguous float32"):
            _capi.dsdot(np.ones(8, dtype=np.float32)[::2])

    def test_signature_mismatch_names_routine_and_scipy(self):
        other = _capi._SIGNATURES["dgesvd"][1]
        with pytest.raises(ConfigurationError) as err:
            _capi._bind(cython_lapack, "dtpqrt", other)
        assert "dtpqrt" in str(err.value) and f"SciPy {scipy.__version__}" in str(err.value)
        with pytest.raises(ConfigurationError, match="dgesvd as None"):
            _capi._bind(types.SimpleNamespace(__pyx_capi__={}), "dgesvd", other)

    def test_every_routine_is_bound_from_this_scipy(self):
        assert sorted(_capi.ROUTINES) == ["dgesvd", "dsdot", "dtpqrt", "sgesvd", "stpqrt"]


def _plain_pack(run, dtype):
    k, rows, bcols = run.shape
    return np.asfortranarray(run.transpose(0, 2, 1).reshape(k * bcols, rows).astype(dtype))


class TestTiledPack:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "k,rows,bcols",
        [(2048, 64, 1), (2047, 64, 1), (129, 64, 1), (1, 64, 1), (301, 33, 9),
         (5, 7, 9), (97, 48, 24), (3, 10, 576), (1, 6, 2500), (40, 1, 3), (1000, 3, 32)],
    )
    def test_equals_the_plain_transposed_copy(self, rng, dtype, k, rows, bcols):
        run = rng.standard_normal((k, rows, bcols)).astype(dtype)
        buf, work = QR._pack(run, np.empty(0, dtype=dtype))
        assert work.flags.f_contiguous and work.shape == (k * bcols, rows)
        assert np.shares_memory(buf, work)
        np.testing.assert_array_equal(work, _plain_pack(run, dtype))

    def test_strided_runs_and_a_widening_buffer(self, rng):
        X = rng.standard_normal((12, 16, 700)).astype(np.float32)
        for run in (X[:, :, 100:613], X[::2], X[:, ::3, 5:37], X.transpose(1, 0, 2)[:, :5, :20]):
            _, work = QR._pack(run, np.empty(7, dtype=np.float64))
            assert work.dtype == np.float64
            np.testing.assert_array_equal(work, _plain_pack(run, np.float64))

    def test_tiles_cover_a_run_that_is_not_a_tile_multiple(self, rng, monkeypatch):
        monkeypatch.setattr(QR, "_TILE_BYTES", 7 * 5 * 8)  # 7 columns per tile, 23 = 3 * 7 + 2
        run = rng.standard_normal((23, 5, 1))
        _, work = QR._pack(run, np.full(200, np.nan))
        np.testing.assert_array_equal(work, _plain_pack(run, np.float64))


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _elementwise_pack(run, dtype):
    """The transposed copy one block at a time, NumPy casting element by element."""
    k, rows, bcols = run.shape
    out = np.empty((k * bcols, rows), dtype=dtype, order="F")
    for j in range(k):
        out[j * bcols : (j + 1) * bcols] = run[j].T
    return out


class TestSegmentPack:
    """A multi-block run's row segments are copied as opaque items: the
    packed bits are those of a plain transposed copy, whatever the path."""

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    @pytest.mark.parametrize("k", [1, 2, 86])
    @pytest.mark.parametrize("bcols", [1, 2, 24, 576])
    def test_bit_for_bit(self, rng, dtype, uint, k, bcols):
        # Random bit patterns: NaN payloads, infinities, subnormals and -0.
        info = np.iinfo(uint)
        run = rng.integers(0, info.max, size=(k, 5, bcols), dtype=uint,
                           endpoint=True).view(dtype)
        _, work = QR._pack(run, np.empty(0, dtype=dtype))
        assert work.flags.f_contiguous and work.shape == (k * bcols, 5)
        np.testing.assert_array_equal(_bits(work), _bits(_elementwise_pack(run, dtype)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_column_sliced_and_strided_runs(self, rng, dtype):
        X = rng.standard_normal((9, 6, 40)).astype(dtype)
        X[0, 0, 5] = -0.0
        for run in (X[:, :, 3:27], X[1::3, 1:, 10:12], X[:, :, ::2], X[::-1]):
            _, work = QR._pack(run, np.full(7, np.nan, dtype=dtype))
            np.testing.assert_array_equal(_bits(work), _bits(_elementwise_pack(run, dtype)))

    def test_casting_run(self, rng):
        run = rng.standard_normal((86, 5, 24)).astype(np.float32)
        run[3, 2, 1] = np.nan
        _, work = QR._pack(run, np.empty(0, dtype=np.float64))
        assert work.dtype == np.float64
        np.testing.assert_array_equal(_bits(work),
                                      _bits(_elementwise_pack(run, np.float64)))


class TestThreads:
    def test_two_threads_factor_different_data_to_the_serial_bits(self, rng):
        """Scratch is per call: rank threads share the module, not a buffer."""
        mats = [rng.standard_normal((48, 9000)).astype(np.float32),
                rng.standard_normal((33, 7000))]
        serial = [gelq(A) for A in mats]
        results: list = [[], []]
        gate = threading.Barrier(2, timeout=30)

        def work(i):
            gate.wait()
            for _ in range(25):
                results[i].append(gelq(mats[i]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            assert len(results[i]) == 25
            for L in results[i]:
                np.testing.assert_array_equal(L, serial[i])

    def test_a_lapack_call_does_not_hold_the_gil(self, rng):
        """By event order, not by time: with forced switches off, another
        thread can only run while the caller is inside the C routine."""
        n = 256
        R = np.asfortranarray(np.triu(rng.standard_normal((n, n))))
        B = np.asfortranarray(rng.standard_normal((4096, n)))
        ws = _capi.Workspace()
        log: list[str] = []
        waiting, go = threading.Event(), threading.Event()

        def other():
            waiting.set()
            go.wait(timeout=60)
            log.append("other thread ran")

        old = sys.getswitchinterval()
        sys.setswitchinterval(600.0)
        try:
            t = threading.Thread(target=other)
            t.start()
            assert waiting.wait(timeout=60)
            go.set()
            _capi.tpqrt(0, 16, R, B, ws)
            log.append("tpqrt returned")
        finally:
            sys.setswitchinterval(old)
        t.join(timeout=60)
        assert not t.is_alive()
        assert log == ["other thread ran", "tpqrt returned"]
