"""Dense state-space LTI systems and frequency-response evaluation.

The central type is :class:`StateSpace`, an immutable (A, B, C, D)
realization with an explicit real/complex scalar-field tag.  Sweeps, row
solves and peak searches go through a per-system evaluator built once, from
the eigendecomposition of A (K frequencies in one (K x n)(n x pq) product
against a kept residue matrix) or, when its eigenvectors are ill
conditioned, from the complex Schur form (O(n^2) per frequency).  Both come
from one ordered Schur form of A, kept by each system that keeps per-system
state (the evaluator, the per-parent context of :mod:`tanmor.gramians`, a
reduced model whose error is measured) and read for its poles and Gramian
too: the eigenvectors by a triangular solve on the Schur factor, their
inverse by a triangular inverse.  A dense LU of ``sI - A`` is left in the
public single-point :func:`eval_tf`, which the package does not call, and
in :func:`_dense_response_slope`.
"""

from __future__ import annotations

import dataclasses
import warnings
import weakref

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from . import _lapack
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

# Complex entries of the largest temporary one batch of responses may build.
_RESPONSE_BLOCK = 1 << 20


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
        otherwise complex128.  Passing "complex" forces complex storage;
        passing "real" also takes complex input whose imaginary parts are
        all zero, and keeps its real parts.

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
            # Drop the zero imaginary parts here: the float64 cast below
            # would warn (ComplexWarning) on complex input.
            A, B, C = (M.real for M in raw[:3])
            if D is not None:
                D = raw[3].real
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
        """Eigenvalues of A (empty for constant systems), as a new array.

        They are read off the diagonal blocks of the ordered Schur form of A
        (see :func:`_schur_poles`).  A form kept earlier, for the response
        evaluator or the Gramian of this system, is reused; a new one is not
        kept, so a one-off query leaves nothing behind.
        """
        return _schur_poles(self)

    def assert_no_imaginary_poles(self) -> None:
        """Raise InvariantViolation if any pole sits on the imaginary axis.

        The test is relative: |Re(lam)| <= 1e-10 * (1 + |lam|).  The poles
        are read off the ordered Schur form of A, which is kept, so the
        response evaluator and the Gramian of this system reuse it.
        """
        _assert_off_axis(_keep_schur_form(self).poles())

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


def _assert_off_axis(poles: np.ndarray) -> None:
    """Raise InvariantViolation for the first of ``poles`` on the imaginary axis."""
    for lam in poles:
        if abs(lam.real) <= IMAG_AXIS_RTOL * (1.0 + abs(lam)):
            raise InvariantViolation(
                f"eigenvalue {lam} of A lies on the imaginary axis "
                f"(|Re| <= {IMAG_AXIS_RTOL:g} * (1 + |eig|))"
            )


def is_strictly_stable(sys: StateSpace) -> bool:
    """True when every pole satisfies Re(lam) <= -1e-10 * (1 + |lam|).

    This is the margin used throughout the package: poles inside the
    relative band around the imaginary axis are treated as *not* stable,
    the same band in which :meth:`StateSpace.assert_no_imaginary_poles`
    rejects a system.  The poles are those of :meth:`StateSpace.poles`, so
    no new Schur form is kept.
    """
    lam = sys.poles()
    if lam.size == 0:
        return True
    return bool(np.all(lam.real <= -IMAG_AXIS_RTOL * (1.0 + np.abs(lam))))


# ---------------------------------------------------------------------------
# resolvent solves
# ---------------------------------------------------------------------------


def _resolvent_lu(A: np.ndarray, s: complex, real_path: bool):
    """LU factors of sI - A, in real arithmetic when ``real_path`` is set.

    Raises SingularResolvent when the reciprocal condition estimate is
    below RESOLVENT_RCOND_MIN, also for an exactly singular pivot, on which
    SciPy's ``LinAlgWarning`` is silenced rather than leaked to the caller.
    """
    n = A.shape[0]
    shift = complex(s).real if real_path else complex(s)
    M = shift * np.eye(n, dtype=np.float64 if real_path else np.complex128) - A
    anorm = np.linalg.norm(M, 1)
    if anorm == 0.0:
        raise SingularResolvent(f"sI - A is the zero matrix at s={s}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
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
        The p x q response, from one dense LU of ``sI - A`` (nothing is
        cached; sweeps use :func:`freq_sweep`, and no routine of the
        package calls this one).  Real systems evaluated at real ``s``
        return a real array; every other case returns a complex array.

    Raises
    ------
    SingularResolvent
        If the estimated reciprocal condition of ``sI - A`` is below 1e-14.
    """
    real_path = sys.is_real and complex(s).imag == 0.0
    if sys.n == 0:
        return sys.D.copy() if real_path else sys.D.astype(np.complex128)
    X = sla.lu_solve(_resolvent_lu(sys.A, s, real_path), sys.B)
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
    :func:`tanmor.error_norm`), and so do those whose system is about to
    need it, through :func:`_keep_schur_form`, so a one-off Gramian or
    pole query of any other system leaves nothing behind.
    """
    form = _SCHUR_FORMS.get(sys)
    if form is None:
        T, Q, k = sla.schur(sys.A, output=sys.scalar_field, sort="lhp")
        form = _seal(T, Q, k)
        if keep:
            _SCHUR_FORMS[sys] = form
    return form


def _keep_schur_form(sys: StateSpace) -> StateSpace:
    """``sys``, with its ordered Schur form kept (see :func:`_schur_form`).

    For a caller about to ask its poles, stability or axis check of a
    system whose response evaluator or Gramian reads the same form next:
    the stability flag of :func:`tanmor.reduce`, the balancing routines,
    the peak searches (:func:`tanmor.peak_gain`, max-error selection) and
    :meth:`StateSpace.assert_no_imaginary_poles`.
    """
    if sys.n:
        _schur_form(sys, keep=True)
    return sys


def _schur_poles(sys: StateSpace) -> np.ndarray:
    """Eigenvalues of A read off its Schur form by :func:`_block_poles`.

    The form is that of :func:`_schur_form`: a kept one is reused, a new
    one is not kept.
    """
    if sys.n == 0:
        return np.zeros(0, dtype=complex)
    return _block_poles(_schur_form(sys)[0])


def _block_poles(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of an upper (quasi-)triangular Schur factor T, as a new array.

    A complex T is triangular.  A real T, as LAPACK leaves it, has 1 x 1
    blocks and standardized 2 x 2 blocks [[a, b], [c, a]] with b c < 0
    (marked by a nonzero subdiagonal entry), whose eigenvalues are
    a +- j sqrt(-b c): the first of each pair has the positive imaginary
    part.  No eigensolver runs on T.
    """
    lam = T.diagonal().astype(complex)
    if not np.iscomplexobj(T):
        sub = T.diagonal(-1)
        i = np.flatnonzero(sub)
        if i.size:
            im = np.sqrt(-T.diagonal(1)[i] * sub[i])
            lam.imag[i], lam.imag[i + 1] = im, -im
    return lam


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


def _eigendecomposition(T: np.ndarray, Q: np.ndarray):
    """(lam, V, V^-1) of A = Q T Q* from its Schur form, or (lam, None, None).

    lam is :func:`_block_poles` of T, and V = Q W with W the eigenvectors of
    T from xTREVC (:func:`tanmor._lapack.schur_eigenvectors`).  W is upper
    triangular, so V^-1 = W^-1 Q* with W^-1 from xTRTRI, and both products
    are triangular ones (xTRMM).  For a real T, W holds each conjugate pair
    at columns (k, k + 1) as the real and imaginary parts x_k, x_(k+1) of
    one eigenvector; V and V^-1 are formed real, and the pair then becomes
    the columns (x_k +- j x_(k+1)) / sqrt(2) of V and, by the inverse of
    that unitary 2 x 2 mix, rows k and k + 1 of V^-1.  W is scaled first so
    that each column of V has unit 2-norm, as xGEEV leaves it.  V is None
    when xTRTRI finds W exactly singular (a defective T whose scaled
    eigenvector underflows).
    """
    lam = _block_poles(T)
    W = _lapack.schur_eigenvectors(T)
    n = T.shape[0]
    pair = np.flatnonzero(T.diagonal(-1)) if not np.iscomplexobj(T) else ()
    # Unit columns of V = Q W; the two columns of a pair get |x_k|^2 +
    # |x_(k+1)|^2 = 2, which the mix below turns into unit columns.
    norms = np.einsum("ij,ij->j", W.conj(), W).real
    if len(pair):
        norms[pair] = norms[pair + 1] = 0.5 * (norms[pair] + norms[pair + 1])
    W /= np.sqrt(norms)
    trtri, trmm = get_lapack_funcs("trtri", (W,)), sla.get_blas_funcs("trmm", (W,))
    Winv, info = trtri(W, overwrite_c=0)
    if info != 0:
        return lam, None, None
    # [V, V^-*] = [Q W, Q W^-*], two xTRMM products side by side.
    VV = np.empty((n, 2 * n), dtype=T.dtype, order="F")
    VV[:, :n] = VV[:, n:] = Q
    trmm(1.0, W, VV[:, :n], side=1, overwrite_b=1)
    trmm(1.0, Winv, VV[:, n:], side=1, trans_a=2, overwrite_b=1)
    del W, Winv
    if len(pair):
        # Rows k, k + 1 of V^-1 are (y_k -+ j y_(k+1)) / sqrt(2) for the rows
        # y of W^-1 Q^T: the conjugates of columns mixed as those of V are.
        VV = VV.astype(np.complex128)
        # halves[:, m, 0] is column m of V and halves[:, m, 1] that of V^-*.
        halves = VV.reshape((n, n, 2), order="F")
        halves.imag[:, pair] = halves.real[:, pair + 1]
        halves[:, pair] *= np.sqrt(0.5)
        halves[:, pair + 1] = halves[:, pair].conj()
    # V and V^-1 are views of the one buffer, which the evaluator keeps.
    if np.iscomplexobj(VV):
        np.conjugate(VV[:, n:], out=VV[:, n:])
    return lam, VV[:, :n], VV[:, n:].T


class _Evaluator:
    """Factors of one system for repeated resolvent evaluations.

    A = Q M Q^-1 with M = diag(lam) from the eigendecomposition when the
    eigenvector matrix has cond(Q) = ||Q||_1 ||Q^-1||_1 <= MODAL_COND_MAX;
    otherwise M = T and Q unitary from the complex Schur form.  With
    Bt = Q^-1 B and Ct = C Q, G(s) = Ct (sI - M)^-1 Bt + D.  The modal path
    keeps, in place of Ct and Bt, the n x pq residue matrix ``R`` whose row i
    is vec(c_i b_i^T), c_i column i of Ct and b_i row i of Bt, so that
    G(s) = sum_i R_i / (s - lam_i) + D: K frequencies are one
    (K x n)(n x pq) product with W = 1/(s - lam), K n p q multiply-adds and
    K n divisions.  The Schur path keeps Ct and Bt (``R`` is None) and
    makes one O(n^2) triangular solve per frequency.

    The eigendecomposition is taken from the system's ordered Schur form
    A = Q_s T Q_s* (see :func:`_schur_form`) by :func:`_eigendecomposition`:
    lam off the diagonal blocks of T, the eigenvectors W of T by xTREVC,
    V = Q_s W and V^-1 = W^-1 Q_s* by xTRTRI, with no general eigensolver
    and no dense inverse.  The Schur path takes that form too, through
    ``rsf2csf`` for a real system, so A is Schur-factored once, for its
    poles, responses and Gramian.  The attribute ``T`` then holds -T, whose
    diagonal each solve sets to s - lam.
    """

    def __init__(self, sys: StateSpace):
        T, Q, _ = _schur_form(sys, keep=True)
        lam, V, Vinv = _eigendecomposition(T, Q)
        if V is not None and np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1) <= MODAL_COND_MAX:
            self.T, self.Q, self.Qinv = None, V, Vinv
        else:
            if sys.is_real:
                T, Q = sla.rsf2csf(T, Q, check_finite=False)
            self.T, self.Q, self.Qinv = -T, Q, Q.conj().T
            lam = np.diag(T).copy()
        self.lam, self.D = lam, sys.D
        Bt, Ct = self.Qinv @ sys.B, sys.C @ self.Q
        if self.T is None:
            self.R = (Ct.T[:, :, None] * Bt[:, None, :]).reshape(len(lam), -1)
        else:
            self.R, self.Ct, self.Bt = None, Ct, Bt

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

    def _solve(self, shift: np.ndarray, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """(sI - T)^-1 rhs on the Schur path; ``shift`` is s - lam, a row of :meth:`_shifts`."""
        # T and Bt are finite, as StateSpace rejects non-finite entries.
        np.fill_diagonal(self.T, shift)
        return sla.solve_triangular(self.T, rhs, trans=trans, check_finite=False)

    def responses(self, s: np.ndarray) -> np.ndarray:
        """G(s_k) for each shift, stacked as a complex (K, p, q) array."""
        shift = self._shifts(s)
        if self.T is None:
            return self._residues(1.0 / shift) + self.D
        X = [self._solve(row, self.Bt) for row in shift]
        return self.Ct @ np.array(X) + self.D

    def slopes(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G(jw_k) and dG(jw)/dw at w_k for shifts s = jw, each stacked (K, p, q).

        The derivative is -j Ct (sI - M)^-2 Bt: on the modal path -j (W * W) R,
        taken in the same product as W R, or one more triangular solve per
        frequency.
        """
        shift = self._shifts(s)
        if self.T is None:
            W = 1.0 / shift
            GY = self._residues(np.concatenate([W, W * W]))
            return GY[: len(W)] + self.D, -1j * GY[len(W) :]
        X = [self._solve(row, self.Bt) for row in shift]
        Y = [self._solve(row, x) for row, x in zip(shift, X)]
        return self.Ct @ np.array(X) + self.D, -1j * (self.Ct @ np.array(Y))

    def _residues(self, W: np.ndarray) -> np.ndarray:
        """sum_i W[k, i] R_i for each row k of W, as a (K, p, q) stack."""
        # Formed as (R^T W^T)^T: as fast as W R, and its rounding keeps the
        # mixed-parent error norms further inside their checks at 1 and 2
        # BLAS threads.
        return (self.R.T @ W.T).T.reshape(len(W), *self.D.shape)

    def rows(self, s: complex, rows: np.ndarray) -> np.ndarray:
        """rows @ (sI - A)^-1 for an m x n row block."""
        shift = self._shifts(np.array([s]))[0]
        Z = rows @ self.Q
        if self.T is None:
            Z = Z / shift
        else:
            # The row block comes from the caller, so it is checked.
            Z = self._solve(shift, np.asarray_chkfinite(Z.T), trans="T").T
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

    Every w, 0 included, takes the evaluator; callers that want a real
    system's G(0) exactly real take its real part.  The frequencies go
    through in blocks of K with K n max(p, q, 1) <= ``_RESPONSE_BLOCK``
    complex entries (16 MiB), which bounds the (K, n) weights of the modal
    path and the (K, n, q) solves of the Schur path: a peak search over its
    2n + 1 pole candidates holds no O(n^2 max(p, q)) array.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    out = np.empty((omegas.size, sys.p, sys.q), dtype=np.complex128)
    if sys.n == 0:
        out[:] = sys.D
        return out
    step = max(1, _RESPONSE_BLOCK // (sys.n * max(sys.p, sys.q, 1)))
    for k in range(0, omegas.size, step):
        out[k : k + step] = _evaluator(sys).responses(1j * omegas[k : k + step])
    return out


def _response_slopes(sys: StateSpace, omegas) -> tuple[np.ndarray, np.ndarray]:
    """G(j*w) and dG(j*w)/dw for each w, as complex (K, p, q) stacks.

    Both come from the cached evaluator, with no dense path at w = 0: on the
    modal path one product of [W; W * W] with the residue matrix.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if sys.n == 0:
        values = np.broadcast_to(sys.D, (omegas.size, sys.p, sys.q)).astype(np.complex128)
        return values, np.zeros_like(values)
    return _evaluator(sys).slopes(1j * omegas)


def _dense_response_slope(sys: StateSpace, w: float) -> tuple[np.ndarray, np.ndarray]:
    """G(j*w) and dG(j*w)/dw from one dense LU of j*w*I - A.

    Only the max-error local stage calls it, for the slope of the reduced
    model R: taken from R's evaluator instead, that slope moves the stacked-
    search check of ``reduce`` to a gamma gap of 1.4e-12, past its 1e-12 band.
    """
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
    frequencies as one product of the weights 1/(j*omega - lam) with an
    n x pq residue matrix, or, when the eigenvector matrix has
    condition above ``MODAL_COND_MAX``, by its complex Schur form, one
    triangular solve per frequency.  Either comes from the system's cached
    ordered Schur form, which its Gramian reads too (see :class:`_Evaluator`),
    and :func:`tanmor.peak_gain` reads the same evaluator.  A real system at
    omega = 0 gets the real part of that response, a real array.

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
    of A, with V and V^-1 from triangular solves on its cached ordered Schur
    form, or triangular solves on its complex Schur form, converted from
    that same form; see :func:`freq_sweep`.  There is no dense path: for a
    real system at real ``s`` with real rows the result is the real part
    of that solve, a real array.

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
    out = _evaluator(sys).rows(complex(s), rows)
    real = sys.is_real and not np.iscomplexobj(rows) and complex(s).imag == 0.0
    return np.ascontiguousarray(out.real) if real else out


def series_sub(lhs: StateSpace, rhs: StateSpace) -> StateSpace:
    """Realize the difference system ``lhs - rhs`` by state stacking.

    The result has order n_lhs + n_rhs, feedthrough D_lhs - D_rhs, and a
    complex scalar field if either operand is complex.

    Raises
    ------
    DimensionMismatch
        If the operands do not share the same numbers of inputs/outputs.
    """
    _check_io(lhs, rhs)
    field = "real" if (lhs.is_real and rhs.is_real) else "complex"
    dtype = np.float64 if field == "real" else np.complex128
    A = _block_diag(lhs.A, rhs.A)
    B = np.vstack([lhs.B.astype(dtype), rhs.B.astype(dtype)])
    C = np.hstack([lhs.C.astype(dtype), -rhs.C.astype(dtype)])
    D = lhs.D.astype(dtype) - rhs.D.astype(dtype)
    return StateSpace(A, B, C, D, scalar_field=field)


def _check_io(lhs: StateSpace, rhs: StateSpace) -> None:
    """Raise DimensionMismatch unless the two systems share their I/O dimensions."""
    if lhs.p != rhs.p or lhs.q != rhs.q:
        raise DimensionMismatch(
            f"incompatible I/O dimensions: ({lhs.p}, {lhs.q}) vs ({rhs.p}, {rhs.q})"
        )


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """``scipy.linalg.block_diag`` of 2-D arrays, bit for bit, at the cost of one ``np.zeros``.

    SciPy's version goes through its array-API layer, which costs far more
    than the copy itself on the small blocks of the reduction loop.
    """
    out = np.zeros(
        (sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
        dtype=np.result_type(*[b.dtype for b in blocks]),
    )
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out
