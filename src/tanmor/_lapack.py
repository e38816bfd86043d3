"""LAPACK's general eigenvalue driver, called in place and without the GIL.

:func:`eigvals_overwrite` runs xGEEV (``dgeev`` or ``zgeev``, eigenvalues
only) on a Fortran-ordered array and leaves that array overwritten, so the
only memory it takes besides its input is the eigenvalue and workspace
vectors.  ``np.linalg.eigvals`` runs the same driver on a private copy of
its input.  The routines come from :mod:`scipy.linalg.cython_lapack`: each
one's address is read from its capsule and called through :mod:`ctypes`,
which releases the GIL for the duration of a foreign call, so two solves on
two threads run at the same time.

Each capsule's name is the C signature of its routine.  Both are checked
once, when this module is imported, against the signatures the calls below
are written for; a SciPy whose routines take other arguments fails the
import instead of being called with the wrong ones.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg.cython_lapack as _cython_lapack

_D = "__pyx_t_5scipy_6linalg_13cython_lapack_d"
_Z = "__pyx_t_double_complex"

#: The capsule name of each routine, as SciPy's Cython LAPACK declares it.
_SIGNATURES = {
    # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info
    "dgeev": (
        f"void (char *, char *, int *, {_D} *, int *, {_D} *, {_D} *, {_D} *, int *, "
        f"{_D} *, int *, {_D} *, int *, int *)"
    ),
    # jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr, work, lwork, rwork, info
    "zgeev": (
        f"void (char *, char *, int *, {_Z} *, int *, {_Z} *, {_Z} *, int *, {_Z} *, "
        f"int *, {_Z} *, int *, {_D} *, int *)"
    ),
}


def _routine(name: str, nargs: int):
    """The LAPACK routine ``name`` as a ctypes function of ``nargs`` pointers."""
    capsule = _cython_lapack.__pyx_capi__[name]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype, get_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
    signature = get_name(capsule).decode()
    if signature != _SIGNATURES[name]:
        raise ImportError(
            f"scipy.linalg.cython_lapack.{name} has signature {signature!r}, "
            f"expected {_SIGNATURES[name]!r}"
        )
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype, get_pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]
    address = get_pointer(capsule, signature.encode())
    # CFUNCTYPE, unlike PYFUNCTYPE, drops the GIL around each call.
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_DGEEV = _routine("dgeev", 14)
_ZGEEV = _routine("zgeev", 14)


def _ptr(x) -> int:
    """Address of an ndarray's data or of a ctypes scalar."""
    return x.ctypes.data if isinstance(x, np.ndarray) else ctypes.addressof(x)


def eigvals_overwrite(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square matrix ``a``, computed in place.

    ``a`` must be a writeable, Fortran-ordered float64 or complex128 array;
    its contents are destroyed.  Returns a complex128 vector: LAPACK's
    eigenvalues in LAPACK's order, as ``np.linalg.eigvals`` returns them
    (which gives a real vector when every eigenvalue of a real matrix is
    real).  The workspace has the size LAPACK asks for in a workspace query,
    as NumPy's has, so the blocked reduction takes the same path and the
    eigenvalues are NumPy's bit for bit when both link the same LAPACK.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` holds an infinity or a NaN, or the QR iteration does not
        converge (xGEEV's ``info`` is not zero).
    ValueError
        If ``a`` is not a square, writeable, Fortran-ordered float64 or
        complex128 array.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype not in (np.float64, np.complex128):
        raise ValueError(f"expected float64 or complex128, got {a.dtype}")
    if not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable Fortran-ordered array")
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.complex128)

    real = a.dtype == np.float64
    no, order, one = ctypes.c_char(b"N"), ctypes.c_int(n), ctypes.c_int(1)
    lwork, info = ctypes.c_int(-1), ctypes.c_int(0)
    # No eigenvectors are asked for, so VL and VR are never referenced.
    query, unused = np.zeros(1, dtype=a.dtype), np.zeros(1, dtype=a.dtype)
    w = np.empty(n, dtype=np.complex128)
    if real:
        wr, wi = np.empty(n), np.empty(n)
    else:
        rwork = np.empty(2 * n)

    def geev(work):
        if real:
            args = (no, no, order, a, order, wr, wi, unused, one, unused, one, work, lwork, info)
        else:
            args = (no, no, order, a, order, w, unused, one, unused, one, work, lwork, rwork, info)
        (_DGEEV if real else _ZGEEV)(*map(_ptr, args))

    geev(query)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"workspace query of xGEEV failed (info = {info.value})")
    lwork.value = max(int(query[0].real), 1)
    geev(np.empty(lwork.value, dtype=a.dtype))
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if real:
        w.real, w.imag = wr, wi
    return w
