"""Dense state-space LTI systems and frequency-response evaluation.

The central type is :class:`StateSpace`, an immutable (A, B, C, D)
realization with an explicit real/complex scalar-field tag.  :func:`eval_tf`
is a dense solve against ``sI - A``; sweeps and row solves go through a
per-system evaluator built once, from the eigendecomposition of A (K
frequencies in one O(K n p q) product) or, when its eigenvectors are ill
conditioned, from the complex Schur form (O(n^2) per frequency).  A system
that keeps per-system state (the evaluator, the per-parent context of
:mod:`tanmor.gramians`, a reduced model whose error is measured) also keeps
one ordered Schur form of A, from which its eigendecomposition and its
Gramian are both taken.
"""

from __future__ import annotations

import dataclasses
import functools
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

#: Linear solves against sI - A refuse below this estimated reciprocal
#: condition number, the cached evaluator when min|s - lam| <= this * max|s - lam|.
RESOLVENT_RCOND_MIN = 1e-14

#: The cached evaluator works from the eigendecomposition A = V diag(lam) V^-1
#: when cond(V) = ||V||_1 ||V^-1||_1 is at most this, since its rounding error
#: grows with cond(V), and from the complex Schur form of A otherwise.
MODAL_COND_MAX = 1e6


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
    internal weak-keyed caches (response evaluator, per-parent context)
    while the matrices stay mutable-free.

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
        """Eigenvalues of A (empty for constant systems).

        Once the cached response evaluator exists, its eigenvalues are reused;
        before that, the first ``eigvals`` of A is kept on the instance.
        """
        if self.n == 0:
            return np.zeros(0, dtype=complex)
        ev = _EVALUATORS.get(self)
        return self._eigvals.copy() if ev is None else ev.lam.copy()

    @functools.cached_property
    def _eigvals(self) -> np.ndarray:
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
    real_path = (
        not np.iscomplexobj(A)
        and not np.iscomplexobj(rhs)
        and complex(s).imag == 0.0
    )
    return sla.lu_solve(_resolvent_lu(A, s, real_path), rhs)


def _resolvent_lu(A: np.ndarray, s: complex, real_path: bool):
    """LU factors of sI - A, in real arithmetic when ``real_path`` is set.

    Raises SingularResolvent when the reciprocal condition estimate is
    below RESOLVENT_RCOND_MIN.
    """
    n = A.shape[0]
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
    return lu, piv


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
# per-system response evaluator
# ---------------------------------------------------------------------------


_SCHUR_FORMS: "weakref.WeakKeyDictionary[StateSpace, tuple[np.ndarray, np.ndarray, int]]" = (
    weakref.WeakKeyDictionary()
)


def _schur_form(sys: StateSpace, keep: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """Ordered Schur form (T, Q, k) of A = Q T Q* in the field of ``sys`` (n >= 1).

    ``schur(A, output=sys.scalar_field, sort="lhp")``: the k poles in the
    open left half-plane lead T.  A cached form is reused; a new one is
    cached, read-only and without a reference to ``sys``, only when
    ``keep`` is set.  Callers that keep per-system state set it (the
    evaluator, the per-parent context, a reduced model in
    :func:`tanmor.error_norm`), so a one-off Gramian of any other system
    leaves nothing behind.
    """
    form = _SCHUR_FORMS.get(sys)
    if form is None:
        T, Q, k = sla.schur(sys.A, output=sys.scalar_field, sort="lhp")
        form = _seal(T, Q, k)
        if keep:
            _SCHUR_FORMS[sys] = form
    return form


def _seal(T: np.ndarray, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The form (T, Q, k) with T and Q made read-only, as the cache holds it."""
    T.setflags(write=False)
    Q.setflags(write=False)
    return T, Q, k


def _seed_adjoint_schur_form(sys: StateSpace, dual: StateSpace) -> None:
    """Cache for ``dual`` (A* of ``sys``) the form flipped from that of a stable ``sys``.

    With J the index reversal, A* = (Q J)(J T* J)(Q J)*, and J T* J is upper
    (quasi-)triangular again; every pole stays in the open left half-plane,
    so the form is ordered.  Nothing is cached unless ``sys`` has a cached
    form whose poles all lie there.
    """
    form = _SCHUR_FORMS.get(sys)
    if form is not None and form[2] == sys.n:
        T, Q, k = form
        _SCHUR_FORMS[dual] = _seal(T.conj().T[::-1, ::-1].copy(), Q[:, ::-1].copy(), k)


class _Evaluator:
    """Factors of one system for repeated resolvent evaluations.

    A = Q M Q^-1 with M = diag(lam) from the eigendecomposition when the
    eigenvector matrix has cond(Q) = ||Q||_1 ||Q^-1||_1 <= MODAL_COND_MAX;
    otherwise M = T and Q unitary from the complex Schur form.  With
    Bt = Q^-1 B and Ct = C Q, G(s) = Ct (sI - M)^-1 Bt + D: one O(K n p q)
    product for K frequencies, or one O(n^2) triangular solve each.

    The eigendecomposition is taken from the system's ordered Schur form
    A = Q_s T Q_s* (see :func:`_schur_form`): lam and W from ``eig(T)``,
    then V = Q_s W, the back-transform LAPACK's xGEEV ends with itself.  So
    a system is Schur-factored once, for its responses and its Gramian.
    The Schur path of a complex system is that same form; a real system
    computes its complex Schur form.
    """

    def __init__(self, sys: StateSpace):
        T, Q, _ = _schur_form(sys, keep=True)
        lam, W = np.linalg.eig(T)
        if np.iscomplexobj(W) and not np.iscomplexobj(Q):
            # Real Q times complex W: one real product on W's interleaved parts.
            V = (Q @ np.ascontiguousarray(W).view(Q.dtype)).view(W.dtype)
        else:
            V = Q @ W
        del W
        try:
            Vinv = np.linalg.inv(V)
            cond = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1)
        except np.linalg.LinAlgError:  # V exactly singular: A is defective
            cond = np.inf
        if cond <= MODAL_COND_MAX:
            self.T, self.Q, self.Qinv = None, V, Vinv
        else:
            if sys.is_real:
                T, Q = sla.schur(sys.A, output="complex")
            self.T, self.Q = T, Q
            self.Qinv = Q.conj().T
            lam = np.diag(T)
        self.lam = lam
        self.Bt = self.Qinv @ sys.B
        self.Ct = sys.C @ self.Q
        self.D = sys.D

    def _shifts(self, s: np.ndarray) -> np.ndarray:
        """The (K, n) array s_k - lam, checked against RESOLVENT_RCOND_MIN."""
        shift = s[:, None] - self.lam
        dist = np.abs(shift)
        bad = dist.min(axis=1) <= RESOLVENT_RCOND_MIN * dist.max(axis=1)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise SingularResolvent(
                f"sI - A numerically singular at s={s[k]} (|s - eig| ranges "
                f"from {dist[k].min():.2e} to {dist[k].max():.2e})"
            )
        return shift

    def responses(self, s: np.ndarray) -> np.ndarray:
        """G(s_k) for each shift, stacked as a complex (K, p, q) array."""
        shift = self._shifts(s)
        if self.T is None:
            return (self.Ct / shift[:, None, :]) @ self.Bt + self.D
        eye = np.eye(self.lam.size)
        X = [sla.solve_triangular(sk * eye - self.T, self.Bt) for sk in s]
        return self.Ct @ np.array(X) + self.D

    def slopes(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G(jw_k) and dG(jw)/dw at w_k for shifts s = jw, each stacked (K, p, q).

        The derivative is -j Ct (sI - M)^-2 Bt: one more stacked product,
        or one more triangular solve per frequency.
        """
        shift = self._shifts(s)
        if self.T is None:
            X = self.Ct / shift[:, None, :]
            return X @ self.Bt + self.D, -1j * ((X / shift[:, None, :]) @ self.Bt)
        eye = np.eye(self.lam.size)
        X, Y = [], []
        for sk in s:
            M = sk * eye - self.T
            X.append(sla.solve_triangular(M, self.Bt))
            Y.append(sla.solve_triangular(M, X[-1]))
        return self.Ct @ np.array(X) + self.D, -1j * (self.Ct @ np.array(Y))

    def rows(self, s: complex, rows: np.ndarray) -> np.ndarray:
        """rows @ (sI - A)^-1 for an m x n row block."""
        shift = self._shifts(np.array([s]))[0]
        Z = rows @ self.Q
        if self.T is None:
            Z = Z / shift
        else:
            M = s * np.eye(self.lam.size) - self.T
            Z = sla.solve_triangular(M, Z.T, trans="T").T
        return Z @ self.Qinv


_EVALUATORS: "weakref.WeakKeyDictionary[StateSpace, _Evaluator]" = (
    weakref.WeakKeyDictionary()
)


def _evaluator(sys: StateSpace) -> _Evaluator:
    """The cached evaluator of ``sys`` (n >= 1), built on first use."""
    ev = _EVALUATORS.get(sys)
    if ev is None:
        ev = _EVALUATORS[sys] = _Evaluator(sys)
    return ev


def _responses(sys: StateSpace, omegas) -> np.ndarray:
    """G(j*w) for each w as a complex (K, p, q) stack, from the cached evaluator.

    A real system at w = 0 takes the dense real solve of :func:`eval_tf`,
    so that entry is exactly real.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    out = np.empty((omegas.size, sys.p, sys.q), dtype=np.complex128)
    if sys.n == 0:
        out[:] = sys.D
        return out
    zero = (omegas == 0.0) & sys.is_real
    if zero.any():
        out[zero] = eval_tf(sys, 0.0)
    if not zero.all():
        out[~zero] = _evaluator(sys).responses(1j * omegas[~zero])
    return out


def _response_slopes(sys: StateSpace, omegas) -> tuple[np.ndarray, np.ndarray]:
    """G(j*w) and dG(j*w)/dw for each w, as complex (K, p, q) stacks.

    Both come from the cached evaluator, with no dense path at w = 0.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if sys.n == 0:
        values = np.broadcast_to(sys.D, (omegas.size, sys.p, sys.q)).astype(np.complex128)
        return values, np.zeros_like(values)
    return _evaluator(sys).slopes(1j * omegas)


def _dense_response_slope(sys: StateSpace, w: float) -> tuple[np.ndarray, np.ndarray]:
    """G(j*w) and dG(j*w)/dw from one dense LU of j*w*I - A."""
    if sys.n == 0:
        return sys.D.astype(np.complex128), np.zeros((sys.p, sys.q), dtype=np.complex128)
    lu = _resolvent_lu(sys.A, 1j * w, False)
    X = sla.lu_solve(lu, sys.B)
    return sys.C @ X + sys.D, -1j * (sys.C @ sla.lu_solve(lu, X))


def freq_sweep(sys: StateSpace, omegas) -> list[FreqResponse]:
    """Evaluate G(j*omega) over a list of frequencies.

    Equivalent to ``[eval_tf(sys, 1j * w) for w in omegas]`` up to
    rounding, but A is factored once per system (and cached while the
    system lives): by its eigendecomposition, which evaluates all
    frequencies in one product, or, when the eigenvector matrix has
    condition above ``MODAL_COND_MAX``, by its complex Schur form, one
    triangular solve per frequency.  The eigendecomposition comes from the
    system's cached ordered Schur form, which its Gramian reads too.  A
    real system at omega = 0 gets the dense real solve of :func:`eval_tf`.

    Parameters
    ----------
    sys : StateSpace
    omegas : iterable of float

    Returns
    -------
    list of FreqResponse

    Raises
    ------
    SingularResolvent
        If some j*omega lies within 1e-14 * max_k |j*omega - lam_k| of an
        eigenvalue lam of A.
    """
    omegas = [float(w) for w in omegas]
    values = _responses(sys, omegas)
    return [
        FreqResponse(w, v.real if sys.is_real and w == 0.0 else v)
        for w, v in zip(omegas, values)
    ]


def resolvent_rows(sys: StateSpace, s: complex, rows: np.ndarray) -> np.ndarray:
    """Compute ``rows @ (s I - A)^{-1}`` through the cached factorization.

    That is ``rows V diag(1/(s - lam)) V^-1`` from the eigendecomposition
    of A (taken from its cached ordered Schur form), or triangular solves
    on its complex Schur form, as chosen in :func:`freq_sweep`.  For a real
    system at real ``s`` with real rows the computation is a dense solve in
    real arithmetic and the result is a real array.

    Raises
    ------
    SingularResolvent
        If ``s`` is numerically an eigenvalue of A.
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
    return _evaluator(sys).rows(complex(s), rows)


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
