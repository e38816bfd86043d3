"""LAPACK eigenvalue kernels, called on the caller's arrays and without the GIL.

:func:`eigvals_overwrite` runs xGEEV (``dgeev`` or ``zgeev``, eigenvalues
only) on a Fortran-ordered array and leaves that array overwritten, so the
only memory it takes besides its input is the eigenvalue and workspace
vectors.  ``np.linalg.eigvals`` runs the same driver on a private copy of
its input.

:func:`schur_eigenvectors` runs xTREVC (``dtrevc`` or ``ztrevc``) on an
upper (quasi-)triangular Schur factor T: the back substitution with which
xGEEV itself ends.  The response evaluator of :mod:`tanmor.lti` takes its
eigenvectors from the kept Schur form this way, with no second general
eigensolve.

The routines come from :mod:`scipy.linalg.cython_lapack`: each one's
address is read from its capsule and called through :mod:`ctypes`, which
releases the GIL for the duration of a foreign call, so two solves on two
threads run at the same time.  Each capsule's name is the C signature of
its routine.  Every one is checked once, when this module is imported,
against the signature the calls below are written for; a SciPy whose
routines take other arguments fails the import instead of being called with
the wrong ones.
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
    # side, howmny, select, n, t, ldt, vl, ldvl, vr, ldvr, mm, m, work, info
    "dtrevc": (
        f"void (char *, char *, int *, int *, {_D} *, int *, {_D} *, int *, {_D} *, "
        f"int *, int *, int *, {_D} *, int *)"
    ),
    # side, howmny, select, n, t, ldt, vl, ldvl, vr, ldvr, mm, m, work, rwork, info
    "ztrevc": (
        f"void (char *, char *, int *, int *, {_Z} *, int *, {_Z} *, int *, {_Z} *, "
        f"int *, int *, int *, {_Z} *, {_D} *, int *)"
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
_DTREVC = _routine("dtrevc", 14)
_ZTREVC = _routine("ztrevc", 15)

# Read-only arguments shared by every xTREVC call (the tuple keeps them
# alive) and their addresses, taken once.
_TREVC_CONSTANTS = (ctypes.c_char(b"R"), ctypes.c_char(b"A"), ctypes.c_int(1), ctypes.c_double(0.0))
_RIGHT, _ALL, _ONE, _UNUSED = map(ctypes.addressof, _TREVC_CONSTANTS)


def _ptr(x) -> int:
    """Address of an ndarray's data or of a ctypes scalar."""
    return x.ctypes.data if isinstance(x, np.ndarray) else ctypes.addressof(x)


def _check_square(a: np.ndarray) -> None:
    """Raise ValueError unless ``a`` is a square Fortran-ordered float64 or complex128 array."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype not in (np.float64, np.complex128):
        raise ValueError(f"expected float64 or complex128, got {a.dtype}")
    if not a.flags.f_contiguous:
        raise ValueError("expected a Fortran-ordered array")


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
    _check_square(a)
    if not a.flags.writeable:
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


def schur_eigenvectors(t: np.ndarray) -> np.ndarray:
    """Right eigenvectors W of an upper (quasi-)triangular Schur factor, T W = W diag(lam).

    ``t`` must be a Fortran-ordered float64 or complex128 array in Schur
    canonical form, as ``scipy.linalg.schur`` returns it: triangular when
    complex; when real, with 1 x 1 blocks and standardized 2 x 2 blocks
    [[a, b], [c, a]], b c < 0, each holding a pair a +- j sqrt(-b c).  It is
    not written to (``ztrevc`` borrows the diagonal of a private copy), so
    a read-only ``t`` is fine.  Column k of W belongs to the k-th diagonal
    entry or block of ``t``, and each column is scaled so that its largest
    entry has |Re| + |Im| = 1.

    A NaN or an infinity in ``t`` gives NaNs in W; nothing is checked.

    A complex W is upper triangular with a nonzero diagonal.  A real W is
    upper triangular too: for a pair at columns (k, k + 1), column k holds
    the real part and column k + 1 the imaginary part of the eigenvector of
    the eigenvalue with positive imaginary part, and xTREVC starts that
    eigenvector with one of the two entries (k, k) and (k + 1, k + 1) real
    and the other imaginary, leaving entries (k + 1, k) and (k, k + 1) zero.
    The eigenvector of the conjugate eigenvalue is the conjugate one.

    Near a repeated eigenvalue xTREVC perturbs the divisors it would divide
    by zero and scales the vector down against overflow, so W exists for a
    defective T too: nearly singular, and exactly singular only where that
    scaling underflows a diagonal entry to zero.

    Raises
    ------
    numpy.linalg.LinAlgError
        If xTREVC reports an error.
    ValueError
        If ``t`` is not a square Fortran-ordered float64 or complex128 array.
    """
    _check_square(t)
    n = t.shape[0]
    real = t.dtype == np.float64
    if not real:
        t = t.copy(order="F")
    # One buffer: W, then the workspace (3n reals, or 2n complex and n reals).
    buf = np.empty(n * n + 3 * n, dtype=t.dtype)
    w = buf[: n * n].reshape((n, n), order="F")
    if n == 0:
        return w
    order, m, info = ctypes.c_int(n), ctypes.c_int(0), ctypes.c_int(0)
    o, address, size = ctypes.addressof(order), buf.ctypes.data, buf.itemsize
    work = address + n * n * size
    # HOWMNY = "A" computes every eigenvector: SELECT and VL are never referenced.
    args = [_RIGHT, _ALL, _UNUSED, o, t.ctypes.data, o, _UNUSED, _ONE, address, o, o]
    args += [ctypes.addressof(m), work] + ([] if real else [work + 2 * n * size])
    (_DTREVC if real else _ZTREVC)(*args, ctypes.addressof(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"xTREVC failed (info = {info.value})")
    return w
