"""LAPACK/BLAS routines called by C pointer, with the GIL released.

SciPy publishes the Fortran routines it links as PyCapsules in
``scipy.linalg.cython_lapack.__pyx_capi__`` / ``cython_blas.__pyx_capi__``
(the interface Cython extensions ``cimport``).  Binding them through
``ctypes.CFUNCTYPE`` gives the same machine code as SciPy's f2py
wrappers — same bits — but ctypes drops the GIL around the call, nothing
is marshalled or copied, and leading dimensions and workspaces are the
caller's.  A capsule's name is its C signature; it is compared with the
one written here before the pointer is used, so a SciPy whose routine
differs is refused at import instead of being called wrongly.

Every wrapper takes Fortran-ordered arrays it works on in place and
raises :class:`~repro.errors.ReproError` on ``info != 0``.  The bound
pointers live in :data:`ROUTINES` (which tests substitute to inject a
failure); scratch space comes from a caller-owned :class:`Workspace`,
never from this module, because the ``threads`` backend runs every rank
through the same module.
"""

from __future__ import annotations

import ctypes
import re
from ctypes import byref, c_int

import numpy as np
import scipy
from scipy.linalg import cython_blas, cython_lapack

from ..errors import ConfigurationError, ConvergenceError, ReproError

__all__ = ["ROUTINES", "Workspace", "tpqrt", "gesvd", "dsdot"]

_CTYPES = {
    "void": None,
    "double": ctypes.c_double,
    "int *": ctypes.POINTER(c_int),
    "char *": ctypes.c_char_p,
    # Array arguments are passed as addresses (``ndarray.ctypes.data``).
    "float *": ctypes.c_void_p,
    "double *": ctypes.c_void_p,
}
_TPQRT = ("void (int *, int *, int *, int *, {t} *, int *, {t} *, int *, "
          "{t} *, int *, {t} *, int *)")
_GESVD = ("void (char *, char *, int *, int *, {t} *, int *, {t} *, {t} *, "
          "int *, {t} *, int *, {t} *, int *, int *)")
_SIGNATURES = {
    "stpqrt": (cython_lapack, _TPQRT.format(t="float")),
    "dtpqrt": (cython_lapack, _TPQRT.format(t="double")),
    "sgesvd": (cython_lapack, _GESVD.format(t="float")),
    "dgesvd": (cython_lapack, _GESVD.format(t="double")),
    "dsdot": (cython_blas, "double (int *, float *, int *, float *, int *)"),
}

_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype, _capsule_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def _bind(module, routine: str, signature: str):
    """The C function behind ``module.__pyx_capi__[routine]``, after checking
    that the capsule declares ``signature`` (Cython's ``s``/``d`` typedefs
    read as ``float``/``double``)."""
    capsule = module.__pyx_capi__.get(routine)
    name = _capsule_name(capsule) if capsule is not None else None
    declared = name and re.sub(
        r"__pyx_t_\w*cython_(?:blas|lapack)_([sd])\b",
        lambda m: "float" if m.group(1) == "s" else "double",
        name.decode(),
    )
    if declared != signature:
        raise ConfigurationError(
            f"SciPy {scipy.__version__} exports {routine} as {declared!r}; "
            f"this library calls it as {signature!r}"
        )
    restype, args = signature.rstrip(")").split(" (")
    prototype = ctypes.CFUNCTYPE(_CTYPES[restype], *(_CTYPES[a] for a in args.split(", ")))
    return prototype(_capsule_pointer(capsule, name))


ROUTINES = {name: _bind(module, name, sig) for name, (module, sig) in _SIGNATURES.items()}

_INT_MAX = int(np.iinfo(np.intc).max)


def _prefix(dtype: np.dtype) -> str:
    if dtype == np.float32:
        return "s"
    if dtype == np.float64:
        return "d"
    raise ReproError(f"LAPACK kernels take float32 or float64, got {dtype}")


def _leading_dimension(name: str, a: np.ndarray, dtype: np.dtype) -> int:
    """``a`` must be a writable Fortran-ordered matrix of ``dtype``."""
    if a.ndim != 2 or a.dtype != dtype or not (a.flags.f_contiguous and a.flags.writeable):
        raise ReproError(
            f"{name} must be a writable Fortran-ordered {dtype} matrix, got "
            f"{a.dtype} {a.shape} with strides {a.strides}"
        )
    return max(1, a.shape[0])


class Workspace:
    """One caller's LAPACK scratch (``tau``/``T``/``work``), grown on demand
    and reused across that caller's calls.  Not to be shared by threads."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def take(self, size: int, dtype: np.dtype) -> np.ndarray:
        if self._buf.dtype != dtype or self._buf.size < size:
            self._buf = np.empty(size, dtype=dtype)
        return self._buf


def tpqrt(l: int, nb: int, a: np.ndarray, b: np.ndarray, ws: Workspace) -> None:
    """``{s,d}tpqrt`` in place: QR of the ``n x n`` upper triangle ``a`` on
    top of the ``m x n`` pentagon ``b`` (``l`` trapezoidal rows; 0 = dense,
    ``n`` = triangular), inner block ``nb``.  ``a`` gets the new triangle,
    ``b`` the reflectors."""
    routine = _prefix(a.dtype) + "tpqrt"
    fn = ROUTINES[routine]
    lda = _leading_dimension("a", a, a.dtype)
    ldb = _leading_dimension("b", b, a.dtype)
    m, n = b.shape
    if a.shape != (n, n) or not 0 <= l <= min(m, n) or not 1 <= nb <= max(n, 1):
        raise ReproError(
            f"{routine}: a {a.shape}, b {b.shape}, l={l}, nb={nb} do not fit"
        )
    if m == 0 or n == 0:
        return
    scratch = ws.take(2 * nb * n, a.dtype)  # T (nb x n), then work (nb * n)
    info = c_int(0)
    fn(byref(c_int(m)), byref(c_int(n)), byref(c_int(l)), byref(c_int(nb)),
       a.ctypes.data, byref(c_int(lda)), b.ctypes.data, byref(c_int(ldb)),
       scratch.ctypes.data, byref(c_int(nb)), scratch[nb * n:].ctypes.data,
       byref(info))
    if info.value != 0:
        raise ReproError(f"LAPACK {routine} failed with info={info.value}")


def gesvd(a: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """``{s,d}gesvd`` with ``JOBU='S'``, ``JOBVT='N'`` and the optimal
    ``lwork``: ``(u, s)``, the ``min(m, n)`` leading left singular vectors
    and the singular values of Fortran-ordered ``a``, which is destroyed.
    The right vectors are never formed."""
    routine = _prefix(a.dtype) + "gesvd"
    fn = ROUTINES[routine]
    lda = _leading_dimension("a", a, a.dtype)
    m, n = a.shape
    k = min(m, n)
    u = np.empty((m, k), dtype=a.dtype, order="F")
    s = np.empty(k, dtype=a.dtype)
    if k == 0:
        return u, s
    head = (b"S", b"N", byref(c_int(m)), byref(c_int(n)), a.ctypes.data,
            byref(c_int(lda)), s.ctypes.data, u.ctypes.data, byref(c_int(m)),
            None, byref(c_int(1)))
    # Workspace query: the optimal size comes back in work[0].
    query, info = ws.take(1, a.dtype), c_int(0)
    fn(*head, query.ctypes.data, byref(c_int(-1)), byref(info))
    if info.value == 0:
        lwork = max(int(query[0]), 3 * k + max(m, n), 5 * k)
        fn(*head, ws.take(lwork, a.dtype).ctypes.data, byref(c_int(lwork)),
           byref(info))
    if info.value > 0:
        raise ConvergenceError(
            f"LAPACK {routine}: {info.value} superdiagonals did not converge")
    if info.value != 0:
        raise ReproError(f"LAPACK {routine} failed with info={info.value}")
    return u, s


def dsdot(x: np.ndarray) -> float:
    """``x . x`` of a contiguous float32 vector by BLAS ``dsdot``: the data
    is read as it lies (no widened copy) and the sum is carried in float64.
    OpenBLAS's x86-64 kernel adds groups of 32 products in float32 before
    they join that sum, so the result is within a few float32 roundings of
    *one group* of exact — about 1e-10 relative on 10^7 random elements,
    against 1e-15 for a sum widened element by element."""
    if x.ndim != 1 or x.dtype != np.float32 or not x.flags.c_contiguous:
        raise ReproError(f"dsdot takes a contiguous float32 vector, got {x.dtype} {x.shape}")
    fn, one, total = ROUTINES["dsdot"], c_int(1), 0.0
    for start in range(0, x.size, _INT_MAX):  # BLAS counts in C ints
        piece = x[start : start + _INT_MAX]
        total += fn(byref(c_int(piece.size)), piece.ctypes.data, byref(one),
                    piece.ctypes.data, byref(one))
    return total
