"""Gramians, H2 norms, and L-infinity peak gain.

Conventions
-----------
The controllability Gramian Theta is the solution of the Lyapunov
equation A Theta + Theta A* + B B* = 0 for stable A.  Under this
normalization, for a real system

    trace(C Theta C*) = (1/pi) * integral_0^inf ||G(jw)||_F^2 dw

and for a complex system the matching identity uses (1/2pi) times the
two-sided integral.  Every norm in this package uses the same scaling, so
identities like gamma_0 = trace(C Theta C*) hold without stray constants.

Systems with eigenvalues in both half-planes (no imaginary-axis poles)
still have a well-defined frequency-domain Gramian, where the antistable
part solves the sign-flipped Lyapunov equation.  Every Gramian, stable or
not, comes from one path: an ordered Schur form split into its stable and
antistable parts, then one triangular Lyapunov solve per part.  The
peak-gain routine first climbs to a local maximum of the response, then
certifies it with the quadratically convergent scheme of Bruinsma and
Steinbuch (1990), which locates candidate frequencies from purely imaginary
eigenvalues of a Hamiltonian matrix (the order of Benner and Mitchell,
2018).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import IllConditionedLyapunov, NonzeroFeedthrough, PeakSearchNotConverged
from .lti import (
    StateSpace,
    _dense_response_slope,
    _evaluator,
    _schur_form,
    eval_tf,
    series_sub,
)

__all__ = [
    "GramianResult",
    "PeakGain",
    "ErrorEstimate",
    "controllability_gramian",
    "h2_norm_sq",
    "peak_gain",
    "error_norm",
    "psd_factor",
]

#: Accepted Lyapunov solves must satisfy residual <= this times ||B B*||_F.
LYAPUNOV_RESIDUAL_RTOL = 1e-8

#: Hamiltonian eigenvalues count as purely imaginary when
#: |Re| <= this * (1 + |eig|).
_HAM_IMAG_RTOL = 1e-8

#: A squared H2 norm is rejected when its rounding-error estimate exceeds
#: this times the larger of the value and the summed squared norms of the
#: decoupled diagonal blocks of A (see :func:`h2_norm_sq`).
_H2_NOISE_RTOL = 1e-6

#: The peak-gain search raises PeakSearchNotConverged after this many
#: Hamiltonian rounds without a certificate; it usually needs one.
PEAK_SEARCH_MAX_ROUNDS = 100

#: Bisection steps of the peak search's local stage; a bracket of width |w|
#: shrinks to adjacent doubles in about 53.
_LOCAL_STAGE_MAX_STEPS = 100

#: The blocked Sylvester solve hands a block to LAPACK's trsyl once neither
#: of its edges exceeds this.
_SYLVESTER_LEAF = 64


@dataclasses.dataclass(frozen=True, eq=False)
class GramianResult:
    """Controllability Gramian with its solve-quality certificate.

    Attributes
    ----------
    theta : numpy.ndarray
        Hermitian positive-semidefinite n x n Gramian.
    residual : float
        Frobenius norm of the defect of the equations actually solved: the
        larger of the stable and antistable block defects in the decoupled
        Schur coordinates (see :func:`controllability_gramian`).  For a
        stable system that is ||T P + P T* + Q* B B* Q||_F with A = Q T Q*.
    """

    theta: np.ndarray
    residual: float

    @functools.cached_property
    def factor(self) -> np.ndarray:
        """PSD factor L with theta = L L*, computed on first use."""
        return psd_factor(self.theta)


class PeakGain(NamedTuple):
    """Largest singular value of the frequency response and where it occurs.

    ``omega_star = math.inf`` is the sentinel for a supremum attained only
    in the limit w -> inf, in which case ``gain`` is the largest singular
    value of the feedthrough D.
    """

    omega_star: float
    gain: float


class ErrorEstimate(NamedTuple):
    """Result of :func:`error_norm`.

    ``value`` is exact; ``approximate`` is always False and is kept only
    so existing readers of the field keep working.
    """

    value: float
    approximate: bool


def psd_factor(theta: np.ndarray) -> np.ndarray:
    """Factor a (numerically) PSD Hermitian matrix as L with theta = L L*.

    Eigenvalues that dip slightly negative from roundoff are clipped to
    zero, so the factor is always well defined for Gramian-quality inputs.
    """
    if theta.shape[0] == 0:
        return theta.copy()
    lam, V = np.linalg.eigh(theta)
    lam = np.clip(lam, 0.0, None)
    return V * np.sqrt(lam)


def controllability_gramian(sys: StateSpace) -> GramianResult:
    """Compute the controllability Gramian of ``sys``.

    Every Gramian takes one path (Bartels and Stewart, 1972).  The ordered
    Schur form A = Q T Q* puts the poles in the open left half-plane first;
    a triangular Sylvester solve decouples them from the rest, so that
    A = V diag(T11, T22) V^-1 with V = Q S.  In those coordinates the
    stable block solves T11 P_s + P_s T11* = -F11 and the antistable block
    the sign-flipped equation T22 P_a + P_a T22* = F22, which is what the
    two-sided frequency integral of the resolvent demands; F is B B* taken
    to the decoupled coordinates.  Theta = V diag(P_s, P_a) V*.  For a
    stable (or antistable) A the coupling is empty and this is the classic
    single Lyapunov solve.  When ``sys`` is a parent whose per-parent
    context exists (it does during :func:`tanmor.reduce` and after
    :func:`error_norm` against it), the split is kept there, so the
    Gramian and every error norm against ``sys`` share one Schur form.
    That form is the one the response evaluator of ``sys`` is built from,
    when ``sys`` has it cached; a system with none computes its form and
    keeps nothing.

    Raises
    ------
    InvariantViolation
        If A has an eigenvalue on the imaginary axis (no Gramian exists).
    IllConditionedLyapunov
        If the coupling solve or either block solve leaves a relative
        residual above its bound (1e-10 and 1e-8 respectively).
    """
    sys.assert_no_imaginary_poles()
    output = "real" if sys.is_real else "complex"
    ctx = _PARENTS.get(sys)
    split = _schur_split(sys, output) if ctx is None else ctx.split(sys, output)
    bbh = sys.B @ sys.B.conj().T
    tol = LYAPUNOV_RESIDUAL_RTOL * max(np.linalg.norm(bbh, "fro"), np.finfo(float).tiny)
    return GramianResult(*_split_gramian(split, bbh, tol))


class _SchurSplit(NamedTuple):
    """Ordered Schur form A = Q T Q* decoupled into its stable and antistable parts.

    T11 (k x k) holds the poles in the open left half-plane and T22 the
    rest, both upper (quasi-)triangular.  With S = [[I, Y], [0, I]] and
    V = Q S, A = V diag(T11, T22) V^-1 and V^-1 B = [B1; B2].
    """

    k: int
    Q: np.ndarray
    Y: np.ndarray
    T11: np.ndarray
    T22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    def to_state(self, M: np.ndarray) -> np.ndarray:
        """V @ M, without forming V."""
        k = self.k
        return self.Q @ np.vstack([M[:k] + self.Y @ M[k:], M[k:]])


def _schur_split(sys: StateSpace, output: str, keep: bool = False) -> _SchurSplit:
    """Decoupled ordered Schur form of ``sys``; ``output`` is "real" or "complex".

    When ``output`` is the field of ``sys``, the Schur form is the one
    cached per system in :mod:`tanmor.lti` (see :func:`tanmor.lti._schur_form`,
    which also keeps a new one when ``keep`` is set), so the Gramian and
    the response evaluator share one factorization.  Another field computes
    its own form.

    Raises
    ------
    IllConditionedLyapunov
        If the stable/antistable coupling solve leaves a relative residual
        above 1e-10.
    """
    A, B = sys.A, sys.B
    if sys.n == 0:
        dtype = np.float64 if output == "real" else np.complex128
        T, Q, k = np.zeros((0, 0), dtype=dtype), np.zeros((0, 0), dtype=dtype), 0
    elif output == sys.scalar_field:
        T, Q, k = _schur_form(sys, keep)
    else:
        T, Q, k = sla.schur(A, output=output, sort="lhp")
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Bt = Q.conj().T @ B

    # Decouple: with state transform [[I, Y], [0, I]], the stable block
    # sees the input matrix B1 - Y B2.
    if T12.size:
        # T11 and T22 are (quasi-)triangular already: solve T11 Y - Y T22 = -T12.
        Y = _blocked_trsyl(T11, T22, -T12, isgn=-1, adjoint=False)
        syl_defect = np.linalg.norm(T11 @ Y - Y @ T22 + T12, "fro")
        syl_scale = (
            np.linalg.norm(T11 @ Y, "fro")
            + np.linalg.norm(Y @ T22, "fro")
            + np.linalg.norm(T12, "fro")
        )
        if syl_defect > 1e-10 * max(syl_scale, np.finfo(float).tiny):
            raise IllConditionedLyapunov(
                f"stable/antistable coupling solve left residual {syl_defect:.3e} "
                f"(scale {syl_scale:.3e})"
            )
    else:
        Y = np.zeros_like(T12)

    return _SchurSplit(k, Q, Y, T11, T22, Bt[:k] - Y @ Bt[k:], Bt[k:])


class _ScaledLeaf(Exception):
    """A trsyl leaf scaled its solution down to avoid overflow."""


def _split_point(T: np.ndarray) -> int:
    """Index near the middle of T that does not cut a 2 x 2 diagonal block."""
    h = T.shape[0] // 2
    return h + 1 if T[h, h - 1] != 0 else h


def _trsyl_blocks(trsyl, T, S, rhs, isgn: int, tranb: str, X: np.ndarray) -> None:
    """Write the solution of T X + isgn X op(S) = rhs into X, block by block.

    The larger of T and S is split in two; the half whose solution the
    other needs is solved first, one GEMM moves it into the other half's
    right-hand side, and then that half is solved.  Blocks with no edge
    above ``_SYLVESTER_LEAF`` go to ``trsyl`` itself.
    """
    m, k = rhs.shape
    if max(m, k) <= _SYLVESTER_LEAF:
        # info = 1 (close eigenvalues, perturbed solve) is left to the residual check.
        X[:], scale, _ = trsyl(T, S, rhs, tranb=tranb, isgn=isgn)
        if scale != 1.0:
            raise _ScaledLeaf
        return
    if m >= k:
        # Rows: T is upper triangular, so the trailing rows come first.
        h = _split_point(T)
        _trsyl_blocks(trsyl, T[h:, h:], S, rhs[h:], isgn, tranb, X[h:])
        upd = rhs[:h] - T[:h, h:] @ X[h:]
        _trsyl_blocks(trsyl, T[:h, :h], S, upd, isgn, tranb, X[:h])
        return
    # Columns: X S needs the leading columns first, X S* the trailing ones.
    h = _split_point(S)
    first, last = (slice(h), slice(h, None)) if tranb == "N" else (slice(h, None), slice(h))
    _trsyl_blocks(trsyl, T, S[first, first], rhs[:, first], isgn, tranb, X[:, first])
    S12 = S[:h, h:]
    coupling = X[:, first] @ (S12 if tranb == "N" else S12.conj().T)
    upd = rhs[:, last] - coupling if isgn == 1 else rhs[:, last] + coupling
    _trsyl_blocks(trsyl, T, S[last, last], upd, isgn, tranb, X[:, last])


def _blocked_trsyl(T, S, rhs, isgn: int = 1, adjoint: bool = True) -> np.ndarray:
    """Solve T X + isgn X op(S) = rhs for upper (quasi-)triangular T and S.

    op(S) is S* when ``adjoint`` is set and S otherwise.  This is the
    recursive blocked algorithm of Jonsson and Kagstrom (ACM TOMS 28(4),
    2002): most of the work is GEMM updates between halves, and LAPACK's
    level-2 ``trsyl`` only solves the blocks at the leaves of the recursion.
    Splits never cut a 2 x 2 block of a real quasi-triangular T or S.
    When a leaf scales its solution down to avoid overflow, the whole
    equation is handed to one flat ``trsyl`` call instead.
    """
    trsyl = sla.get_lapack_funcs("trsyl", (T, S, rhs))
    tranb = ("T" if trsyl.typecode == "d" else "C") if adjoint else "N"
    X = np.empty(rhs.shape, dtype=trsyl.dtype)
    try:
        _trsyl_blocks(trsyl, T, S, rhs, isgn, tranb, X)
    except _ScaledLeaf:
        X, scale, _ = trsyl(T, S, rhs, tranb=tranb, isgn=isgn)
        X = X / scale
    return X


def _triangular_sylvester(T, S, rhs, tol: float) -> tuple[np.ndarray, float]:
    """Solve T M + M S* = rhs for upper (quasi-)triangular T and S.

    The solve is the recursive blocked one of :func:`_blocked_trsyl`
    (GEMM updates between halves, LAPACK ``trsyl`` on blocks of edge at
    most ``_SYLVESTER_LEAF``, one flat ``trsyl`` call if a block had to be
    scaled).  Returns M and the Frobenius norm of its defect
    T M + M S* - rhs.

    Raises
    ------
    IllConditionedLyapunov
        If that defect exceeds ``tol``.
    """
    if rhs.size == 0:
        return rhs, 0.0
    M = _blocked_trsyl(T, S, rhs)
    defect = float(np.linalg.norm(T @ M + M @ S.conj().T - rhs, "fro"))
    if not defect <= tol:
        raise IllConditionedLyapunov(
            f"Sylvester residual {defect:.3e} of a Gramian block exceeds {tol:.3e}"
        )
    return M, defect


def _split_gramian(split: _SchurSplit, bbh: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Gramian V diag(P_s, P_a) V* of a split system, and the larger block defect.

    ``bbh`` is B B* of that system.  In the decoupled coordinates it is
    S^-1 F S^-* with F = Q* B B* Q and S^-1 = [[I, -Y], [0, I]]; only its
    diagonal blocks enter the block solves.  The order of the products
    makes a stable (k = n) or antistable (k = 0) system, where Y is empty,
    reproduce a plain Bartels-Stewart solve bit for bit.
    """
    k, Q, Y = split.k, split.Q, split.Y
    F = Q.conj().T @ (bbh @ Q)
    top = F[:k] - Y @ F[k:]
    P_s, defect_s = _triangular_sylvester(
        split.T11, split.T11, -(top[:, :k] - top[:, k:] @ Y.conj().T), tol
    )
    P_a, defect_a = _triangular_sylvester(split.T22, split.T22, F[k:, k:], tol)
    YP = Y @ P_a
    P = np.block([[P_s + YP @ Y.conj().T, YP], [YP.conj().T, P_a]])
    theta = (Q @ P) @ Q.conj().T
    return 0.5 * (theta + theta.conj().T), max(defect_s, defect_a)


class _ParentContext:
    """Parent-only quantities of one system, each computed at most once.

    Holds the Gramian (with its PSD factor), the summed squared norms of
    its decoupled diagonal blocks that the rounding guard of
    :func:`error_norm` reads, a memo of responses w -> G(jw) that
    :mod:`tanmor.selection` fills, and the decoupled Schur split in each
    form asked for; the Gramian and every error norm against the parent
    read the same split.  The poles are those of the response evaluator in
    :mod:`tanmor.lti`, which takes its eigendecomposition from the parent's
    cached ordered Schur form, the one the split in the parent's own field
    is built on: one Schur form serves the responses, the poles, the
    Gramian's imaginary-axis check and the Gramian.  It holds no reference
    to the system itself, so the weak-keyed cache below lets a parent (and
    all of this) go once callers drop it.
    """

    def __init__(self):
        self._gramian: GramianResult | None = None
        self._blocks: float | None = None
        self._splits: dict[str, _SchurSplit] = {}
        self.responses: dict[float, np.ndarray] = {}

    def gramian(self, g: StateSpace) -> GramianResult:
        if self._gramian is None:
            self.poles(g)  # builds the evaluator, whose eigenvalues g.poles() reuses
            self._gramian = controllability_gramian(g)
        return self._gramian

    def blocks(self, g: StateSpace) -> float:
        """Summed squared norms of the decoupled diagonal blocks of g (see :func:`_block_norms`)."""
        if self._blocks is None:
            self._blocks = _block_norms(g.A, g.C, self.gramian(g).theta)
        return self._blocks

    def poles(self, g: StateSpace) -> np.ndarray:
        """Eigenvalues of A, from the response evaluator's factorization."""
        if g.n == 0:
            return g.poles()
        return _evaluator(g).lam

    def split(self, g: StateSpace, output: str) -> _SchurSplit:
        """Schur split in ``output`` ("real" or "complex") form."""
        if output not in self._splits:
            self._splits[output] = _schur_split(g, output, keep=True)
        return self._splits[output]


_PARENTS: "weakref.WeakKeyDictionary[StateSpace, _ParentContext]" = (
    weakref.WeakKeyDictionary()
)


def _parent_context(g: StateSpace) -> _ParentContext:
    ctx = _PARENTS.get(g)
    if ctx is None:
        ctx = _PARENTS[g] = _ParentContext()
    return ctx


def h2_norm_sq(sys: StateSpace, strict_proper: bool = False) -> float:
    """Squared H2 norm trace(C Theta C*) of a strictly proper system.

    Theta comes from :func:`controllability_gramian`, whose triangular
    solves are recursive and blocked.  It is positive semidefinite in exact
    arithmetic, so the part of the trace carried by its negative
    eigenvalues is rounding error, and the positive part carries error of
    the same size.  A badly scaled realization (huge output map, nearly
    dependent modes) can make that error swamp the value, even with every
    solve passing its residual check.  Such a value is rejected rather than
    returned: the call raises when the magnitude of the negative part
    exceeds 1e-6 times the larger of the value and the summed squared norms
    of the decoupled diagonal blocks of A.  For an error system
    ``series_sub(g, r)`` those are the blocks of g and of r, so a model
    that matches g to rounding level measures as zero instead of being
    rejected.  A Cholesky factorization of Theta plus a small diagonal
    shift is tried first: when the shift is small enough and the
    factorization completes, it bounds that error below the threshold (see
    :func:`_checked_trace`), which settles the check with no eigensolve,
    for semidefinite Gramians as well as definite ones.  Otherwise only the
    eigenpairs of Theta in (-inf, 0] are computed for the estimate.  A
    Theta or trace that is not finite is rejected too.

    Parameters
    ----------
    sys : StateSpace
        System to measure.  Must have D = 0 unless ``strict_proper`` is
        set, in which case D is dropped before the computation.
    strict_proper : bool
        Project out the feedthrough instead of raising.

    Raises
    ------
    NonzeroFeedthrough
        If D != 0 and ``strict_proper`` is False (the norm is infinite).
    InvariantViolation
        If A has an imaginary-axis pole (the norm is infinite).
    IllConditionedLyapunov
        If a Gramian solve fails its residual check, the value is not
        finite, or rounding error swamps it.
    """
    if np.any(sys.D != 0) and not strict_proper:
        raise NonzeroFeedthrough(
            "squared H2 norm is infinite for nonzero feedthrough; "
            "pass strict_proper=True to measure the strictly proper part"
        )
    if sys.n == 0:
        return 0.0
    return max(_checked_trace(sys, controllability_gramian(sys).theta), 0.0)


def _block_norms(A: np.ndarray, C: np.ndarray, theta: np.ndarray) -> float:
    """Summed |trace(C_b Theta_bb C_b*)| over the decoupled diagonal blocks b of A.

    Diagonal blocks of A with no coupling entries are subsystems in
    parallel.  The trace is the sum of their squared norms plus cross
    terms, and the cross terms cancel them when the subsystems nearly
    cancel (g - r with r close to g); rounding error is relative to the
    blocks, not to the sum.  A block ends at state i when no state up to i
    is coupled to a state after i.  The blocks of ``series_sub(g, r)`` are
    those of g and of r, so its sum is the sum of theirs.
    """
    n = A.shape[0]
    if n == 0:
        return 0.0
    idx = np.arange(n)
    linked = (A != 0) | (A != 0).T
    ends = np.maximum.accumulate(np.where(linked, idx, idx[:, None]).max(axis=1))
    labels = np.concatenate([[0], np.cumsum(ends[:-1] == idx[:-1])])
    same = labels[:, None] == labels[None, :]
    terms = np.real(theta * (C.conj().T @ C).T)
    rows = np.broadcast_to(labels[:, None], same.shape)
    return float(np.abs(np.bincount(rows[same], weights=terms[same])).sum())


def _checked_trace(sys: StateSpace, theta: np.ndarray, blocks: float | None = None) -> float:
    """trace(C Theta C*), raising when it is not finite or rounding error swamps it.

    The threshold is tau = 1e-6 max(value, blocks), where ``blocks`` is
    :func:`_block_norms` of ``sys`` and Theta; a caller that knows it (an
    error system, whose blocks are those of g and r) passes it in.

    A certificate is tried first.  With delta = tau / (2 ||C||_F^2), when
    (delta + 2 N eps (tr(Theta) + N delta)) ||C||_F^2 <= tau, Theta + delta I
    is factored by Cholesky; if that completes, the value is returned with
    no eigensolve.  The argument: completion gives Theta + delta I + E =
    R* R with |E_ij| <= g sqrt((theta_ii + delta)(theta_jj + delta)),
    g = gamma_{N+1} / (1 - gamma_{N+1}) and gamma_k = k u / (1 - k u),
    u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 10.1), so every eigenvalue of the N x N Theta is at least
    -delta - g tr(Theta + delta I), with g about (N + 1) u.  The eigensolve
    below moves the eigenvalues it computes by some p(N) u ||Theta||_2 more.
    The code assumes p(N) <= 2N; that allowance is not a proven bound for
    xSYEVR/xHEEVR, whose documented backward error carries an unspecified
    modest p(N).  Under it, every computed eigenvalue is at least
    -delta - 2 N eps (tr(Theta) + N delta), and the rounding estimate, which
    sums -lambda ||C v||^2 over orthonormal v, is at most that bound times
    ||C||_F^2, so at most tau: the eigensolve path would return the same
    value.  The shift lets a semidefinite Theta (a Gramian with eigenvalues
    at rounding level around zero) be certified, not only a definite one.
    The bound is checked before factoring, so a Theta that cannot be
    certified pays for no factorization.

    Otherwise only the eigenpairs of Theta in (-inf, 0] are computed
    (LAPACK's range-selected xSYEVR/xHEEVR): the rounding-error estimate
    uses those with a negative eigenvalue and nothing else of the spectrum,
    and the call raises when it exceeds tau.
    """
    C = sys.C
    value = float(np.real(np.trace(C @ theta @ C.conj().T)))
    if not (math.isfinite(value) and np.isfinite(theta).all()):
        raise IllConditionedLyapunov(
            f"squared H2 norm {value:.6g} or its Gramian is not finite"
        )
    if blocks is None:
        blocks = _block_norms(sys.A, C, theta)
    tau = _H2_NOISE_RTOL * max(value, blocks)
    c2 = float(np.linalg.norm(C, "fro")) ** 2
    if c2 == 0.0:
        return value  # C = 0: no eigenpair can carry an estimate
    n = theta.shape[0]
    delta = tau / (2.0 * c2)
    allowance = 2.0 * n * np.finfo(float).eps * (np.real(np.trace(theta)) + n * delta)
    if (delta + allowance) * c2 <= tau:
        shifted = theta.copy()
        shifted.flat[:: n + 1] += delta
        try:
            sla.cholesky(shifted, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            pass
        else:
            return value
    lam, V = sla.eigh(
        theta, subset_by_value=(-np.inf, 0.0), driver="evr", check_finite=False
    )
    neg = lam < 0
    noise = -float(lam[neg] @ np.sum(np.abs(C @ V[:, neg]) ** 2, axis=0))
    if noise > tau:
        raise IllConditionedLyapunov(
            f"squared H2 norm {value:.6g} carries rounding error of about "
            f"{noise:.3e}, above {_H2_NOISE_RTOL:g} * max(value, summed "
            f"block norms {blocks:.6g})"
        )
    return value


# ---------------------------------------------------------------------------
# peak gain
# ---------------------------------------------------------------------------


def _sigma_max_batch(values) -> np.ndarray:
    """Largest singular value of each of a list of equal-shape responses."""
    stack = np.array(values)
    if stack.size == 0:
        return np.zeros(len(values))
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _pole_candidates(poles: np.ndarray, real_field: bool) -> set:
    """Starting frequencies of the peak search, derived from the poles."""
    candidates = {0.0}
    for ev in poles:
        candidates.add(abs(ev.imag))
        candidates.add(abs(ev))
        if not real_field:
            candidates.add(ev.imag)
            candidates.add(-abs(ev))
    return candidates


def _imag_eig_frequencies(ham_eigs: np.ndarray, real_field: bool) -> np.ndarray:
    on_axis = ham_eigs[np.abs(ham_eigs.real) <= _HAM_IMAG_RTOL * (1.0 + np.abs(ham_eigs))]
    if on_axis.size == 0:
        return np.zeros(0)
    if real_field:
        return np.unique(np.abs(on_axis.imag))
    return np.unique(on_axis.imag)


def _sigma_max_slope(value: np.ndarray, slope: np.ndarray) -> tuple[float, float]:
    """sigma_max of E(jw) and its derivative Re(u1* E'(jw) v1), E'(jw) = dE/dw.

    u1 and v1 are the leading singular vectors of E(jw); the derivative
    formula holds wherever the largest singular value is simple.
    """
    u, sv, vh = np.linalg.svd(value)
    return float(sv[0]), float(np.real(u[:, 0].conj() @ slope @ vh[0].conj()))


def _local_peak(omegas: list, i: int, sigma_slope) -> float | None:
    """Local maximum of sigma_max next to the best scanned candidate omegas[i].

    ``sigma_slope`` maps a frequency to sigma_max there and its derivative.
    The search runs from c = omegas[i] towards its neighbour on the side
    that the slope at c points to.  Both neighbours scored lower than c,
    so that interval holds a local maximum, and bisection keeps one in its
    bracket [near, far]: the slope at ``near`` points to ``far``, and
    either ``far`` scored below c or its slope points back.  A midpoint
    below the value at c becomes ``far``; otherwise the sign of its slope
    decides which end it replaces.  Near the peak only that sign is used,
    so the result is pinned to the last bit instead of stopping within
    the flat top, where comparisons of values depend on rounding.
    Returns None when there is no neighbour on that side.
    """
    c = omegas[i]
    sigma_c, d = sigma_slope(c)
    if d > 0.0 and i + 1 < len(omegas):
        near, far = c, omegas[i + 1]
    elif d < 0.0 and i > 0:
        near, far = c, omegas[i - 1]
    else:
        return None
    for _ in range(_LOCAL_STAGE_MAX_STEPS):
        m = 0.5 * (near + far)
        if m in (near, far):
            break
        sigma_m, d = sigma_slope(m)
        if sigma_m >= sigma_c and d * (far - near) > 0.0:
            near = m
        else:
            far = m
    return near


def _peak_search(sys: StateSpace, candidates, sigma_max, sigma_slope, rtol: float) -> PeakGain:
    """Bruinsma-Steinbuch search for the peak of the response of ``sys``.

    ``sigma_max`` maps a list of frequencies to the largest singular values
    of the response of ``sys`` there, and ``sigma_slope`` maps one
    frequency to that value and its derivative; ``sys`` itself supplies
    only the feedthrough and the Hamiltonian matrices.  Candidates are scanned in
    ascending order, and a frequency replaces the best one only when its
    value is strictly larger.  A local stage (Benner and Mitchell, 2018)
    then climbs from the best candidate to the nearby local maximum of
    sigma_max (see :func:`_local_peak`); its frequency replaces the
    candidate only when its value exceeds the candidate's by more than the
    factor 1 + rtol, so a candidate already within rtol of the local peak
    is kept as scanned.  Each Hamiltonian round then tests the level
    (1 + rtol) times the best value and scans the midpoints of its
    imaginary-eigenvalue frequencies.  With the local maximum in hand, the
    first round usually finds no such frequency and certifies the gain.
    """
    if not 0.0 < rtol < 0.5:
        raise ValueError(f"rtol must lie in (0, 0.5), got {rtol}")
    p, q = sys.p, sys.q
    sd = np.linalg.svd(sys.D, compute_uv=False) if sys.D.size else np.zeros(0)
    sigma_d = float(sd[0]) if sd.size else 0.0
    if sys.n == 0:
        return PeakGain(math.inf, sigma_d)

    best_gain, best_w, best_i = sigma_d, math.inf, None
    omegas = sorted(candidates)
    for i, (w, s) in enumerate(zip(omegas, sigma_max(omegas))):
        if s > best_gain:
            best_gain, best_w, best_i = float(s), float(w), i

    if best_gain <= 0.0:
        return PeakGain(0.0, 0.0)

    eps = rtol / 2.0
    # sigma_max of a real system is even in w, so w = 0 is stationary.
    stationary = sys.is_real and best_w == 0.0
    if best_i is not None and not stationary:
        w = _local_peak(omegas, best_i, sigma_slope)
        if w is not None:
            s = float(sigma_max([w])[0])
            if s > best_gain * (1.0 + 2.0 * eps):
                best_gain, best_w = s, w

    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    for _ in range(PEAK_SEARCH_MAX_ROUNDS):
        gamma = best_gain * (1.0 + 2.0 * eps)
        R = gamma * gamma * np.eye(q) - D.conj().T @ D
        Rinv = np.linalg.inv(R)
        Acl = A + B @ Rinv @ D.conj().T @ C
        ham = np.block(
            [
                [Acl, B @ Rinv @ B.conj().T],
                [-C.conj().T @ (np.eye(p) + D @ Rinv @ D.conj().T) @ C, -Acl.conj().T],
            ]
        )
        freqs = _imag_eig_frequencies(np.linalg.eigvals(ham), sys.is_real)
        if freqs.size == 0:
            break
        mids = list(freqs if freqs.size == 1 else 0.5 * (freqs[1:] + freqs[:-1]))
        improved = False
        for w, s in zip(mids, sigma_max(mids)):
            if s > best_gain:
                best_gain, best_w, improved = float(s), float(w), True
        if not improved:
            break
    else:
        raise PeakSearchNotConverged(
            f"peak search not certified after {PEAK_SEARCH_MAX_ROUNDS} Hamiltonian "
            f"rounds (best gain {best_gain:.6g} at omega={best_w:.6g})"
        )

    if math.isinf(best_w):
        return PeakGain(math.inf, sigma_d)
    return PeakGain(best_w, best_gain)


def peak_gain(sys: StateSpace, rtol: float = 1e-6) -> PeakGain:
    """Locate the largest singular value of G(jw) over all frequencies.

    Uses the Hamiltonian-eigenvalue test: gamma exceeds the peak if and
    only if the associated 2n x 2n Hamiltonian matrix has no purely
    imaginary eigenvalues.  The search scans singular values at frequency
    candidates derived from the poles, then climbs from the best one to
    the nearby local maximum by bisection on the sign of d sigma_max / dw
    (Benner and Mitchell, 2018).  Each Hamiltonian round tests a level
    just above the best value found and evaluates midpoints of its
    imaginary-eigenvalue frequencies, which converges quadratically
    (Bruinsma and Steinbuch, 1990); when the local maximum is the global
    one, the first round certifies it.  Stability of A is not required,
    only the absence of imaginary-axis poles.  Each response and slope is
    a dense solve against ``sys``; nothing is cached between calls.
    :func:`tanmor.select_max_error` runs the same search on an error
    system g - r, with the responses of g cached per parent.

    Parameters
    ----------
    sys : StateSpace
    rtol : float
        Relative accuracy of the returned gain, in (0, 0.5).

    Returns
    -------
    PeakGain
        ``gain`` is the largest singular value found, attained at
        ``omega_star`` (recomputable from the response there).  If the
        supremum is approached only as w -> inf, the sentinel
        ``PeakGain(math.inf, sigma_max(D))`` is returned instead of an
        error.

    Raises
    ------
    PeakSearchNotConverged
        If no round certifies the gain within ``PEAK_SEARCH_MAX_ROUNDS``
        Hamiltonian rounds.
    """
    return _peak_search(
        sys,
        _pole_candidates(sys.poles(), sys.is_real),
        lambda omegas: _sigma_max_batch([eval_tf(sys, 1j * w) for w in omegas]),
        lambda w: _sigma_max_slope(*_dense_response_slope(sys, w)),
        rtol,
    )


# ---------------------------------------------------------------------------
# error norm
# ---------------------------------------------------------------------------


def error_norm(g: StateSpace, r: StateSpace) -> ErrorEstimate:
    """H2-type norm of the error system g - r, computed exactly.

    The value is the square root of trace(C Theta C*) for the error system
    ``series_sub(g, r)``, the square root of the frequency integral of
    ||G(jw) - R(jw)||_F^2 scaled as in the module docstring.  Theta is
    assembled blockwise as [[Theta_g, X], [X*, Theta_r]] instead of by a
    Lyapunov solve at order n + r.  Theta_g and the decoupled Schur split
    of g are computed once per parent and kept while g is alive; they are
    the same split and Gramian that :func:`controllability_gramian` uses.
    Theta_r takes that same path on the small split of r, so reduced models
    that picked up antistable modes are measured too.  The cross Gramian X
    comes from triangular Sylvester solves that pair the split of r with
    that of g (Bartels and Stewart, 1972), at O(n^2 r) cost.  Every
    triangular solve is the recursive blocked one of Jonsson and Kagstrom
    (2002): GEMM updates between halves and LAPACK ``trsyl`` on small
    leaves.  Only parts of equal stability are coupled, because the
    stable-antistable cross terms of the frequency integral vanish.  Each
    block solve must leave a residual below 1e-8 times ||B B*||_F of the
    error system.

    The split of r is kept in the Schur-form cache of :mod:`tanmor.lti`
    when it is in r's own field, so the response evaluator that the next
    selection step builds for r starts from it: each reduced model is
    Schur-factored once.

    A value swamped by rounding error (a badly scaled realization of r)
    raises, as described in :func:`h2_norm_sq`.  The decoupled diagonal
    blocks of the error system are those of g and of r, so the rounding
    error is judged against their squared norms rather than against the
    (possibly tiny) error; g's sum is kept in the per-parent context and
    r's comes from Theta_r, so no (n + r)-sized block sum is formed.  A
    Theta whose shifted Cholesky factorization certifies the value skips
    the guard's eigensolve, semidefinite or not; any other Theta gets the
    range-selected eigensolve of its non-positive eigenpairs.

    Parameters
    ----------
    g, r : StateSpace
        Full and reduced models with matching I/O dimensions and equal
        feedthrough.

    Returns
    -------
    ErrorEstimate
        ``approximate`` is always False.

    Raises
    ------
    NonzeroFeedthrough
        If the feedthroughs differ (the norm is infinite).
    InvariantViolation
        If the error system has an imaginary-axis pole (the norm is
        infinite).
    IllConditionedLyapunov
        If a Gramian or block solve fails its residual check, or rounding
        error swamps the value.
    """
    err = series_sub(g, r)
    if np.any(err.D != 0):
        raise NonzeroFeedthrough(
            "the H2 error is infinite when the feedthroughs of g and r differ"
        )
    ctx = _parent_context(g)
    theta_g = ctx.gramian(g).theta
    r.assert_no_imaginary_poles()
    output = "real" if err.is_real else "complex"
    gs, rs = ctx.split(g, output), _schur_split(r, output, keep=True)

    # ||B B*||_F of the error system, from the q x q Gram matrix.
    bbh_norm = np.linalg.norm(g.B.conj().T @ g.B + r.B.conj().T @ r.B, "fro")
    tol = LYAPUNOV_RESIDUAL_RTOL * max(bbh_norm, np.finfo(float).tiny)

    theta_r, _ = _split_gramian(rs, r.B @ r.B.conj().T, tol)
    # The stable parts solve T M + M S* + B1_g B1_r* = 0, the antistable
    # parts the sign-flipped equation; V_g and V_r take M back to the
    # states of g and r.
    M = sla.block_diag(
        _triangular_sylvester(gs.T11, rs.T11, -(gs.B1 @ rs.B1.conj().T), tol)[0],
        _triangular_sylvester(gs.T22, rs.T22, gs.B2 @ rs.B2.conj().T, tol)[0],
    )
    X = gs.to_state(rs.to_state(M.conj().T).conj().T)
    theta = np.block([[theta_g, X], [X.conj().T, theta_r]])
    blocks = ctx.blocks(g) + _block_norms(r.A, r.C, theta_r)
    return ErrorEstimate(math.sqrt(max(_checked_trace(err, theta, blocks), 0.0)), False)
