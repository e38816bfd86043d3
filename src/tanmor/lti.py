"""Dense state-space LTI systems and frequency-response evaluation.

The central type is :class:`StateSpace`, an immutable (A, B, C, D)
realization with an explicit real/complex scalar-field tag.  Frequency
responses are computed by linear solves against the shifted matrix
``sI - A``; a per-system Hessenberg factorization makes repeated sweeps
cost O(n^2) per frequency instead of O(n^3).
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, InvariantViolation, SingularResolvent

__all__ = [
    "StateSpace",
    "FreqResponse",
    "eval_tf",
    "freq_sweep",
    "series_sub",
    "is_strictly_stable",
]

#: Eigenvalues with |Re(lam)| <= IMAG_AXIS_RTOL * (1 + |lam|) count as lying
#: on the imaginary axis.  The Gramian integral does not exist for such
#: systems, so loaders and norm routines reject them.
IMAG_AXIS_RTOL = 1e-10

#: Linear solves against sI - A refuse to proceed below this estimated
#: reciprocal condition number.
RESOLVENT_RCOND_MIN = 1e-14


def _as_matrix(name: str, value, dtype) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=dtype))
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class StateSpace:
    """Immutable dense realization G(s) = C (sI - A)^{-1} B + D.

    Parameters
    ----------
    A, B, C, D : array_like
        System matrices with shapes (n, n), (n, q), (p, n), (p, q).
        ``D`` may be omitted (zero feedthrough).  ``n = 0`` is allowed and
        describes a constant (D-only) system.
    scalar_field : {"real", "complex"}, optional
        Storage field.  By default it is inferred: if every entry of every
        matrix is real-valued the system is stored with float64 entries,
        otherwise complex128.  Passing "complex" forces complex storage.

    Notes
    -----
    Instances compare by identity: two systems built from equal matrices
    are distinct objects.  This keeps the type safely hashable for the
    internal factorization caches while the matrices stay mutable-free.

    Eigenvalues of ``A`` on the imaginary axis are *not* rejected here.
    Intermediate reduced models can be marginally stable by construction;
    the check belongs to model loading and to operations whose math needs
    it (see :meth:`assert_no_imaginary_poles`).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    scalar_field: str = "real"

    def __init__(self, A, B, C, D=None, scalar_field: str | None = None):
        raw = [np.asarray(M) for M in (A, B, C)] + ([] if D is None else [np.asarray(D)])
        inferred_complex = any(np.iscomplexobj(M) for M in raw)
        if scalar_field is None:
            scalar_field = "complex" if inferred_complex else "real"
        if scalar_field not in ("real", "complex"):
            raise ValueError(f"scalar_field must be 'real' or 'complex', got {scalar_field!r}")
        if scalar_field == "real" and inferred_complex:
            if any(np.any(M.imag != 0) for M in raw if np.iscomplexobj(M)):
                raise InvariantViolation(
                    "scalar_field='real' but a matrix has nonzero imaginary entries"
                )
        dtype = np.float64 if scalar_field == "real" else np.complex128

        A = _as_matrix("A", A, dtype)
        if A.size == 0:
            A = A.reshape(0, 0)
        B = _as_matrix("B", B, dtype)
        C = _as_matrix("C", C, dtype)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if n == 0:
            # atleast_2d turns an empty list into shape (1, 0); normalize
            # the degenerate shapes so D-only systems are expressible.
            if B.size == 0:
                B = B.reshape(0, B.shape[1])
            if C.size == 0:
                C = C.reshape(C.shape[0], 0)
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected n={n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} columns, expected n={n}")
        p, q = C.shape[0], B.shape[1]
        if D is None:
            D = np.zeros((p, q), dtype=dtype)
        else:
            D = _as_matrix("D", D, dtype)
        if D.shape != (p, q):
            raise DimensionMismatch(f"D has shape {D.shape}, expected ({p}, {q})")

        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if M.size and not np.all(np.isfinite(M)):
                raise InvariantViolation(f"matrix {name} contains non-finite entries")

        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        object.__setattr__(self, "scalar_field", scalar_field)

    @classmethod
    def constant(cls, D, scalar_field: str | None = None) -> "StateSpace":
        """Build the zero-state system whose response is identically D."""
        D = np.atleast_2d(np.asarray(D))
        p, q = D.shape
        if scalar_field is None:
            scalar_field = "complex" if np.iscomplexobj(D) else "real"
        dtype = np.float64 if scalar_field == "real" else np.complex128
        return cls(
            np.zeros((0, 0), dtype=dtype),
            np.zeros((0, q), dtype=dtype),
            np.zeros((p, 0), dtype=dtype),
            D,
            scalar_field=scalar_field,
        )

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def p(self) -> int:
        """Number of outputs."""
        return self.C.shape[0]

    @property
    def q(self) -> int:
        """Number of inputs."""
        return self.B.shape[1]

    @property
    def is_real(self) -> bool:
        return self.scalar_field == "real"

    def poles(self) -> np.ndarray:
        """Eigenvalues of A (empty for constant systems)."""
        if self.n == 0:
            return np.zeros(0, dtype=complex)
        return np.linalg.eigvals(self.A)

    def assert_no_imaginary_poles(self) -> None:
        """Raise InvariantViolation if any pole sits on the imaginary axis.

        The test is relative: |Re(lam)| <= 1e-10 * (1 + |lam|).
        """
        for lam in self.poles():
            if abs(lam.real) <= IMAG_AXIS_RTOL * (1.0 + abs(lam)):
                raise InvariantViolation(
                    f"eigenvalue {lam} of A lies on the imaginary axis "
                    f"(|Re| <= {IMAG_AXIS_RTOL:g} * (1 + |eig|))"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateSpace(n={self.n}, p={self.p}, q={self.q}, "
            f"scalar_field={self.scalar_field!r})"
        )


@dataclasses.dataclass(frozen=True, eq=False)
class FreqResponse:
    """A single frequency-response sample: ``value = G(j * omega)``.

    For real systems evaluated at ``omega = 0`` the stored value is a real
    array (the response of a real system at s = 0 is exactly real, and
    keeping it real lets downstream SVD factors stay real too).
    """

    omega: float
    value: np.ndarray

    def __init__(self, omega: float, value):
        value = np.asarray(value)
        if value.ndim != 2:
            raise DimensionMismatch("FreqResponse.value must be a 2-D matrix")
        if value.size and not np.all(np.isfinite(value)):
            raise InvariantViolation("frequency response is not finite (omega is a pole?)")
        value = value.copy()
        value.setflags(write=False)
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "value", value)


def is_strictly_stable(sys: StateSpace) -> bool:
    """True when every pole satisfies Re(lam) <= -1e-10 * (1 + |lam|).

    This is the margin used throughout the package: poles inside the
    relative band around the imaginary axis are treated as *not* stable,
    the same band in which :meth:`StateSpace.assert_no_imaginary_poles`
    rejects a system.
    """
    lam = sys.poles()
    if lam.size == 0:
        return True
    return bool(np.all(lam.real <= -IMAG_AXIS_RTOL * (1.0 + np.abs(lam))))


# ---------------------------------------------------------------------------
# resolvent solves
# ---------------------------------------------------------------------------


def _dense_resolvent_solve(A: np.ndarray, s: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (sI - A) X = rhs by LU with a condition estimate.

    Stays in real arithmetic when everything involved is real, so e.g.
    a real system evaluated at s = 0 produces a bitwise-real result.
    """
    n = A.shape[0]
    real_path = (
        not np.iscomplexobj(A)
        and not np.iscomplexobj(rhs)
        and complex(s).imag == 0.0
    )
    shift = complex(s).real if real_path else complex(s)
    M = shift * np.eye(n, dtype=np.float64 if real_path else np.complex128) - A
    anorm = np.linalg.norm(M, 1)
    if anorm == 0.0:
        raise SingularResolvent(f"sI - A is the zero matrix at s={s}")
    lu, piv = sla.lu_factor(M)
    gecon = get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < RESOLVENT_RCOND_MIN:
        raise SingularResolvent(
            f"sI - A numerically singular at s={s} (rcond estimate {rcond:.2e})"
        )
    return sla.lu_solve((lu, piv), rhs)


def eval_tf(sys: StateSpace, s: complex) -> np.ndarray:
    """Evaluate the transfer function G(s) = C (sI - A)^{-1} B + D.

    Parameters
    ----------
    sys : StateSpace
    s : complex
        Evaluation point; must not be (numerically) an eigenvalue of A.

    Returns
    -------
    numpy.ndarray
        The p x q response.  Real systems evaluated at real ``s`` return a
        real array; every other case returns a complex array.

    Raises
    ------
    SingularResolvent
        If the estimated reciprocal condition of ``sI - A`` is below 1e-14.
    """
    if sys.n == 0:
        if sys.is_real and complex(s).imag == 0.0:
            return sys.D.copy()
        return sys.D.astype(np.complex128)
    X = _dense_resolvent_solve(sys.A, s, sys.B)
    return sys.C @ X + sys.D


# ---------------------------------------------------------------------------
# Hessenberg-accelerated sweeps
# ---------------------------------------------------------------------------


def _hessenberg_banded(H: np.ndarray) -> np.ndarray:
    """Banded (gbtrf layout) storage of an upper-Hessenberg matrix.

    Rows kl..2kl+ku of the returned array hold the matrix diagonals with
    ab[kl + ku + i - j, j] = H[i, j]; the top kl rows are gbtrf workspace.
    """
    n = H.shape[0]
    kl, ku = 1, n - 1
    ab = np.zeros((2 * kl + ku + 1, n), dtype=H.dtype)
    for i in range(n):
        j = np.arange(max(0, i - kl), n)
        ab[kl + ku + i - j, j] = H[i, max(0, i - kl):]
    return ab


class _HessenbergCache:
    """Per-system Hessenberg factorization for fast resolvent solves.

    With A = Q H Q* (H upper Hessenberg), each shifted solve reduces to a
    banded factorization of sI - H, which costs O(n^2).  Row solves
    X (sI - A)^{-1} reuse the same data through the identity
    X (sI - A)^{-1} = [(sI - A*)^{-1} X*]*, where sI - A* is *lower*
    Hessenberg; reversing both axes turns it upper Hessenberg again.
    """

    def __init__(self, sys: StateSpace):
        self.n = sys.n
        if self.n == 0:
            return
        H, Q = sla.hessenberg(sys.A, calc_q=True)
        self.Q = Q
        self.H_banded_neg = _hessenberg_banded(-H)
        # Reversed-axes copy of -(H*) for the row-solve path.
        Hct = H.conj().T
        self.Hct_rev_banded_neg = _hessenberg_banded(-Hct[::-1, ::-1])
        self.QB = Q.conj().T @ sys.B

    def _banded_solve(self, ab_neg: np.ndarray, s: complex, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        kl, ku = 1, n - 1
        # Fortran order lets gbtrf factor this private copy in place.
        ab = np.array(ab_neg, dtype=np.complex128, order="F")
        ab[kl + ku, :] += s
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:
            raise SingularResolvent(f"sI - A exactly singular at s={s}")
        diag = np.abs(lu[kl + ku, :])
        dmax = diag.max()
        if dmax == 0.0 or diag.min() / dmax < RESOLVENT_RCOND_MIN:
            raise SingularResolvent(
                f"sI - A numerically singular at s={s} "
                f"(pivot ratio {0.0 if dmax == 0.0 else diag.min() / dmax:.2e})"
            )
        x, info = gbtrs(lu, kl, ku, np.ascontiguousarray(rhs, dtype=np.complex128), piv)
        if info != 0:
            raise SingularResolvent(f"banded solve failed at s={s} (info={info})")
        return x

    def solve_columns(self, s: complex) -> np.ndarray:
        """Return (sI - A)^{-1} B."""
        y = self._banded_solve(self.H_banded_neg, s, self.QB)
        return self.Q @ y

    def solve_rows(self, s: complex, rows: np.ndarray) -> np.ndarray:
        """Return rows @ (sI - A)^{-1} for an m x n row block."""
        rhs = (rows @ self.Q).conj().T[::-1, :]
        y = self._banded_solve(self.Hct_rev_banded_neg, np.conj(s), rhs)
        return (self.Q @ y[::-1, :]).conj().T


_HESS_CACHE: "weakref.WeakKeyDictionary[StateSpace, _HessenbergCache]" = (
    weakref.WeakKeyDictionary()
)


def _hessenberg_cache(sys: StateSpace) -> _HessenbergCache:
    cache = _HESS_CACHE.get(sys)
    if cache is None:
        cache = _HessenbergCache(sys)
        _HESS_CACHE[sys] = cache
    return cache


def freq_sweep(sys: StateSpace, omegas) -> list[FreqResponse]:
    """Evaluate G(j*omega) over a list of frequencies.

    Equivalent to ``[eval_tf(sys, 1j * w) for w in omegas]`` but the
    Hessenberg form of A is factored once per system (and cached), so each
    frequency costs one banded solve.

    Parameters
    ----------
    sys : StateSpace
    omegas : iterable of float

    Returns
    -------
    list of FreqResponse
    """
    omegas = [float(w) for w in omegas]
    if not omegas:
        return []
    if sys.n == 0:
        return [FreqResponse(w, eval_tf(sys, 1j * w)) for w in omegas]
    cache = _hessenberg_cache(sys)
    out = []
    for w in omegas:
        if sys.is_real and w == 0.0:
            # Keep the zero-frequency response of a real system exactly real.
            out.append(FreqResponse(0.0, eval_tf(sys, 0.0)))
            continue
        X = cache.solve_columns(1j * w)
        out.append(FreqResponse(w, sys.C @ X + sys.D))
    return out


def resolvent_rows(sys: StateSpace, s: complex, rows: np.ndarray) -> np.ndarray:
    """Compute ``rows @ (s I - A)^{-1}`` through the cached factorization.

    For a real system at ``s = 0`` the computation runs in real arithmetic
    and the result is a real array.
    """
    rows = np.atleast_2d(rows)
    if rows.shape[1] != sys.n:
        raise DimensionMismatch(
            f"row block has {rows.shape[1]} columns, expected n={sys.n}"
        )
    if sys.n == 0:
        return rows[:, :0]
    if sys.is_real and not np.iscomplexobj(rows) and complex(s).imag == 0.0:
        sol = _dense_resolvent_solve(sys.A.T, complex(s).real, rows.T)
        return sol.T
    return _hessenberg_cache(sys).solve_rows(complex(s), rows)


def series_sub(lhs: StateSpace, rhs: StateSpace) -> StateSpace:
    """Realize the difference system ``lhs - rhs`` by state stacking.

    The result has order n_lhs + n_rhs, feedthrough D_lhs - D_rhs, and a
    complex scalar field if either operand is complex.

    Raises
    ------
    DimensionMismatch
        If the operands do not share the same numbers of inputs/outputs.
    """
    if lhs.p != rhs.p or lhs.q != rhs.q:
        raise DimensionMismatch(
            f"incompatible I/O dimensions: ({lhs.p}, {lhs.q}) vs ({rhs.p}, {rhs.q})"
        )
    field = "real" if (lhs.is_real and rhs.is_real) else "complex"
    dtype = np.float64 if field == "real" else np.complex128
    n1, n2 = lhs.n, rhs.n
    A = np.zeros((n1 + n2, n1 + n2), dtype=dtype)
    A[:n1, :n1] = lhs.A
    A[n1:, n1:] = rhs.A
    B = np.vstack([lhs.B.astype(dtype), rhs.B.astype(dtype)])
    C = np.hstack([lhs.C.astype(dtype), -rhs.C.astype(dtype)])
    D = lhs.D.astype(dtype) - rhs.D.astype(dtype)
    return StateSpace(A, B, C, D, scalar_field=field)
