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

from . import _lapack
from .errors import IllConditionedLyapunov, NonzeroFeedthrough, PeakSearchNotConverged
from .lti import (
    StateSpace,
    _assert_off_axis,
    _block_diag,
    _block_poles,
    _check_io,
    _keep_schur_form,
    _response_slopes,
    _responses,
    _schur_form,
    _seed_adjoint_schur_form,
)

__all__ = [
    "GramianResult",
    "PeakGain",
    "ErrorEstimate",
    "controllability_gramian",
    "h2_norm_sq",
    "peak_gain",
    "error_norm",
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

#: Column width of the blocks in which a Sylvester defect and a Hermitian
#: average are formed, so neither makes a temporary of the solution's size.
_COLUMN_BLOCK = 128


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

    @property
    def factor(self) -> np.ndarray:
        """PSD factor L with theta = L L*, computed on first use."""
        return self._eig_factor.L

    @functools.cached_property
    def _eig_factor(self) -> "_EigFactor":
        return _eig_factor(self.theta)


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

    ``value`` is the square root of a trace that lies within tau =
    1e-6 max(value^2, summed block norms) of the trace of the computed
    error Gramian, an absolute bound (see :func:`error_norm`).  A value far
    below ||g|| can therefore carry a large relative error.
    ``approximate`` is always False and is kept only so existing readers
    of the field keep working.
    """

    value: float
    approximate: bool


def psd_factor(theta: np.ndarray) -> np.ndarray:
    """Factor a (numerically) PSD Hermitian matrix as L with theta = L L*.

    Eigenvalues that dip slightly negative from roundoff are clipped to
    zero, so the factor is always well defined for Gramian-quality inputs.
    """
    return _eig_factor(theta).L


class _EigFactor(NamedTuple):
    """L = V diag(s) from theta = V diag(lam) V*, with s^2 = max(lam, 0).

    ``neg_lam`` and ``neg_V`` are the clipped eigenpairs (lam < 0).
    """

    L: np.ndarray
    s2: np.ndarray
    neg_lam: np.ndarray
    neg_V: np.ndarray


def _eig_factor(theta: np.ndarray) -> _EigFactor:
    """The factor of :func:`psd_factor` with the eigenvalues it kept and clipped."""
    if theta.shape[0] == 0:
        return _EigFactor(theta.copy(), np.zeros(0), np.zeros(0), theta.copy())
    lam, V = np.linalg.eigh(theta)
    neg = lam < 0
    s2 = np.clip(lam, 0.0, None)
    return _EigFactor(V * np.sqrt(s2), s2, lam[neg], V[:, neg])


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
    That form is the one the poles and the response evaluator of ``sys``
    are read from, when ``sys`` has it cached; a system with none computes
    its form and keeps nothing.  The imaginary-axis check reads the poles
    off the diagonal blocks of that form's T, so no eigensolver runs.

    Raises
    ------
    InvariantViolation
        If A has an eigenvalue on the imaginary axis (no Gramian exists).
    IllConditionedLyapunov
        If the coupling solve or either block solve leaves a relative
        residual above its bound (1e-10 and 1e-8 respectively).
    """
    output = "real" if sys.is_real else "complex"
    ctx = _PARENTS.get(sys)
    split = _schur_split(sys, output) if ctx is None else ctx.split(sys, output)
    # ||B B*||_F from the q x q Gram matrix, as error_norm takes it.
    bbh_norm = np.linalg.norm(sys.B.conj().T @ sys.B, "fro")
    tol = LYAPUNOV_RESIDUAL_RTOL * max(bbh_norm, np.finfo(float).tiny)
    return GramianResult(*_split_gramian(split, sys.B, tol))


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

    The Schur form is the one cached per system in :mod:`tanmor.lti` (see
    :func:`tanmor.lti._schur_form`, which also keeps a new one when ``keep``
    is set), so the Gramian and the response evaluator share one
    factorization.  A real system asked for the complex form converts its
    real one by ``rsf2csf``, which keeps the ordering and k.  The poles on
    the diagonal blocks of T are checked against the imaginary-axis band
    before anything is solved.

    Raises
    ------
    InvariantViolation
        If A has an eigenvalue on the imaginary axis.
    IllConditionedLyapunov
        If the stable/antistable coupling solve leaves a relative residual
        above 1e-10.
    """
    if sys.n == 0:
        dtype = np.float64 if output == "real" else np.complex128
        T, Q, k = np.zeros((0, 0), dtype=dtype), np.zeros((0, 0), dtype=dtype), 0
    else:
        T, Q, k = _schur_form(sys, keep)
        if output != sys.scalar_field:
            T, Q = sla.rsf2csf(T, Q, check_finite=False)
    _assert_off_axis(_block_poles(T))
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Bt = Q.conj().T @ sys.B

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
    T M + M S* - rhs, formed ``_COLUMN_BLOCK`` columns at a time, so the
    check adds no array of the size of M.

    Raises
    ------
    IllConditionedLyapunov
        If that defect exceeds ``tol``.
    """
    if rhs.size == 0:
        return rhs, 0.0
    M = _blocked_trsyl(T, S, rhs)
    squares = 0.0
    for j in range(0, rhs.shape[1], _COLUMN_BLOCK):
        cols = slice(j, j + _COLUMN_BLOCK)
        d = T @ M[:, cols]
        d += M @ S[cols].conj().T
        d -= rhs[:, cols]
        squares += float(np.vdot(d, d).real)
    defect = math.sqrt(squares)
    if not defect <= tol:
        raise IllConditionedLyapunov(
            f"Sylvester residual {defect:.3e} of a Gramian block exceeds {tol:.3e}"
        )
    return M, defect


def _hermitian_part(theta: np.ndarray) -> np.ndarray:
    """Overwrite the square ``theta`` with (theta + theta*) / 2 and return it.

    One block row and the block column below its diagonal block at a
    time, both read before either is written, so no second array of the
    size of theta exists.  Every entry is formed as in
    ``0.5 * (theta + theta.conj().T)``, so the result is that one bit for bit.
    """
    for i in range(0, theta.shape[0], _COLUMN_BLOCK):
        j = i + _COLUMN_BLOCK
        upper = theta[i:j, i:] + theta[i:, i:j].conj().T
        lower = theta[j:, i:j] + theta[i:j, j:].conj().T
        upper *= 0.5
        lower *= 0.5
        theta[i:j, i:] = upper
        theta[j:, i:j] = lower
    return theta


def _split_gramian(split: _SchurSplit, B: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Gramian V diag(P_s, P_a) V* of a split system with input matrix B, and the larger block defect.

    In the decoupled coordinates B B* is S^-1 F S^-* with F = Q* B B* Q
    and S^-1 = [[I, -Y], [0, I]]; only its diagonal blocks enter the block
    solves.  A stable (k = n) or antistable (k = 0) system, where Y is
    empty, is a plain Bartels-Stewart solve: the coupling products, which
    would only add or subtract zeros, are skipped.  F takes the stable
    block's right-hand side in place, each intermediate is dropped as
    soon as the next one exists, and the Hermitian average is taken in
    place (:func:`_hermitian_part`), so the Gramian of an n-state system
    holds fewer than four n x n arrays at any time.  The result
    is bit for bit the one of forming every product in full.
    """
    k, Q, Y = split.k, split.Q, split.Y
    F = Q.conj().T @ (B @ B.conj().T @ Q)
    if Y.size:
        F[:k] -= Y @ F[k:]
        rhs_s = -(F[:k, :k] - F[:k, k:] @ Y.conj().T)
    else:
        rhs_s = np.negative(F[:k, :k], out=F[:k, :k])
    P_s, defect_s = _triangular_sylvester(split.T11, split.T11, rhs_s, tol)
    P_a, defect_a = _triangular_sylvester(split.T22, split.T22, F[k:, k:], tol)
    del F, rhs_s
    if Y.size:
        YP = Y @ P_a
        P = np.block([[P_s + YP @ Y.conj().T, YP], [YP.conj().T, P_a]])
        del YP
    else:
        P = P_s if k else P_a
    del P_s, P_a
    theta = Q @ P
    del P
    theta = theta @ Q.conj().T
    return _hermitian_part(theta), max(defect_s, defect_a)


class _ParentContext:
    """Parent-only quantities of one system, each computed at most once.

    Holds the Gramian (with its PSD factor), the summed squared norms of
    its decoupled diagonal blocks that the bound of :func:`error_norm`
    reads, the pieces of the factor that the r-sized error norm reads
    (:class:`_ParentFactor`: C_g L_g, the noise level of the factor's
    eigensolve and the parent's own rounding estimate, all from that one
    eigensolve), a memo of responses w -> G(jw) that
    :mod:`tanmor.selection` fills, and the decoupled Schur split in each
    form asked for; the Gramian and every error norm against the parent
    read the same split, which keeps the parent's ordered Schur form in
    :mod:`tanmor.lti`.  The response evaluator (which :func:`tanmor.reduce`
    builds before its loop), the split in the parent's own field and
    the poles that max-error selection reads all read that form: one form
    serves the responses, the poles, the Gramian's imaginary-axis check and
    the Gramian.  The square-root balancing that :func:`tanmor.hankel_values`
    and :func:`tanmor.balanced_truncation` read is kept here too, beside the
    Gramian factor it starts from.  It holds no reference to the system
    itself, so the weak-keyed cache below lets a parent (and all of this)
    go once callers drop it.
    """

    def __init__(self):
        self._gramian: GramianResult | None = None
        self._balancing: tuple[np.ndarray, ...] | None = None
        self._blocks: float | None = None
        self._factor: _ParentFactor | None = None
        self._splits: dict[str, _SchurSplit] = {}
        self.responses: dict[float, np.ndarray] = {}

    def gramian(self, g: StateSpace) -> GramianResult:
        if self._gramian is None:
            self._gramian = controllability_gramian(g)
        return self._gramian

    def blocks(self, g: StateSpace) -> float:
        """Summed squared norms of the decoupled diagonal blocks of g (see :func:`_block_norms`)."""
        if self._blocks is None:
            self._blocks = _block_norms(g.A, g.C, self.gramian(g).theta)
        return self._blocks

    def factor_parts(self, g: StateSpace) -> "_ParentFactor":
        """The Gramian factor of g with what :func:`_factored_trace` reads of it."""
        if self._factor is None:
            parts = self.gramian(g)._eig_factor
            L, C = parts.L, g.C
            # Eigenvalues at or below eps * lam_max carry no digits after a
            # backward-stable eigh, and those within the largest clipped one
            # of zero are as much rounding noise as that one.
            clipped = -float(parts.neg_lam.min()) if parts.neg_lam.size else 0.0
            level = max(clipped, np.finfo(float).eps * float(parts.s2.max(initial=0.0)))
            s2 = np.where(parts.s2 > level, parts.s2, np.inf)
            self._factor = _ParentFactor(
                L=L,
                s2=s2,
                kept=np.flatnonzero(np.isfinite(s2)),
                C=C,
                CL=C @ L,
                CL_err=_gamma(g.n) * float(np.linalg.norm(np.abs(C) @ np.abs(L))),
                noise=float(-parts.neg_lam @ np.sum(np.abs(C @ parts.neg_V) ** 2, axis=0)),
            )
        return self._factor

    def split(self, g: StateSpace, output: str) -> _SchurSplit:
        """Schur split in ``output`` ("real" or "complex") form."""
        if output not in self._splits:
            self._splits[output] = _schur_split(g, output, keep=True)
        return self._splits[output]

    def balancing(self, g: StateSpace) -> tuple[np.ndarray, ...]:
        """Square-root balancing ``(Lp, Lq, U, s, Vh)`` of g, with U diag(s) Vh = Lq* Lp.

        Lp is the Gramian factor of g and Lq that of its dual (A*, C*, B*,
        D*), whose Gramian is the observability Gramian of g; s holds the
        Hankel singular values, descending.  The dual is seeded with the
        form of g flipped (:func:`tanmor.lti._seed_adjoint_schur_form`), so
        a stable g with a kept form needs no second Schur decomposition.
        Nothing here checks stability; the callers do.
        """
        if self._balancing is None:
            dual = StateSpace(
                g.A.conj().T,
                g.C.conj().T,
                g.B.conj().T,
                g.D.conj().T,
                scalar_field=g.scalar_field,
            )
            Lp = self.gramian(g).factor
            _seed_adjoint_schur_form(g, dual)
            Lq = controllability_gramian(dual).factor
            U, s, Vh = np.linalg.svd(Lq.conj().T @ Lp)
            self._balancing = Lp, Lq, U, s, Vh
        return self._balancing


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
    rejected.  Only the eigenpairs of Theta in (-inf, 0] are computed for
    the estimate (see :func:`_checked_trace`).  A Theta or trace that is
    not finite is rejected too.  A returned value therefore lies within
    that threshold of the trace, an absolute bound: a value far below the
    block norms can carry a large relative error.

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


def _checked_trace(sys: StateSpace, theta: np.ndarray) -> float:
    """trace(C Theta C*), raising when it is not finite or rounding error swamps it.

    The threshold is tau = 1e-6 max(value, blocks), where ``blocks`` is
    :func:`_block_norms` of ``sys`` and Theta.

    Only the eigenpairs of Theta in (-inf, 0] are computed (LAPACK's
    range-selected xSYEVR/xHEEVR): the rounding-error estimate
    -sum lambda ||C v||^2 uses those with a negative eigenvalue and nothing
    else of the spectrum, and the call raises when it exceeds tau.  A full
    eigensolve would resolve the cluster of Theta around zero differently
    and read the estimate several times lower on the Gramians this guard
    refuses, so the range solve is kept.
    """
    C = sys.C
    value = float(np.real(np.trace(C @ theta @ C.conj().T)))
    if not (math.isfinite(value) and np.isfinite(theta).all()):
        raise IllConditionedLyapunov(
            f"squared H2 norm {value:.6g} or its Gramian is not finite"
        )
    blocks = _block_norms(sys.A, C, theta)
    tau = _H2_NOISE_RTOL * max(value, blocks)
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


def _hamiltonian(sys: StateSpace, gamma: float) -> np.ndarray:
    """The 2n x 2n Hamiltonian whose imaginary eigenvalues are the level-gamma crossings.

    Built block by block into one Fortran-ordered array, so no stacked
    copies of it exist, and :func:`tanmor._lapack.eigvals_overwrite` solves
    that array itself: each certificate holds one 2n x 2n array from its
    construction to its eigenvalues.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, p, q = sys.n, sys.p, sys.q
    Rinv = np.linalg.inv(gamma * gamma * np.eye(q) - D.conj().T @ D)
    ham = np.empty((2 * n, 2 * n), dtype=np.result_type(A, B, C, D), order="F")
    Acl = A + B @ Rinv @ D.conj().T @ C
    ham[:n, :n] = Acl
    ham[n:, n:] = -Acl.conj().T
    del Acl
    ham[:n, n:] = B @ Rinv @ B.conj().T
    ham[n:, :n] = -C.conj().T @ (np.eye(p) + D @ Rinv @ D.conj().T) @ C
    return ham


class _Round(NamedTuple):
    """One Hamiltonian round of a peak search (see :func:`_peak_search`).

    ``ham`` is the 2n x 2n Hamiltonian at the round's level, for the caller
    to solve; ``provisional`` is the peak, mapped by the search's
    ``locate`` step, that the round certifies if ``ham`` has no imaginary
    eigenvalue that improves on it.
    """

    ham: np.ndarray
    provisional: object


def _peak_search(
    sys: StateSpace, candidates, sigma_max, sigma_slope, rtol: float, locate=lambda peak: peak
):
    """Bruinsma-Steinbuch search for the peak of the response of ``sys``, as a generator.

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

    Every peak the search reports goes through its caller's ``locate``
    step, which maps a :class:`PeakGain` to what the caller wants (the
    peak itself for :func:`peak_gain`, a frequency for
    :func:`tanmor.selection.select_max_error`).  The eigensolve of each
    round is left to the caller: the generator yields a :class:`_Round`,
    whose ``provisional`` is the mapped peak that the round certifies, and
    takes the eigenvalues of its ``ham`` back through ``send``.  The
    search's result, the generator's return value, is the mapped peak;
    it equals the last provisional one unless the search raises.  The
    generator keeps no reference to ``ham``.  :func:`_resume` is the one
    step that drives it: :func:`_solved` loops it on the calling thread,
    and :func:`tanmor.reduce` hands each ``ham`` to a worker thread and
    goes on with the provisional peak.
    """
    if not 0.0 < rtol < 0.5:
        raise ValueError(f"rtol must lie in (0, 0.5), got {rtol}")
    sd = np.linalg.svd(sys.D, compute_uv=False) if sys.D.size else np.zeros(0)
    sigma_d = float(sd[0]) if sd.size else 0.0
    if sys.n == 0:
        return locate(PeakGain(math.inf, sigma_d))

    # best_w stays at infinity, with best_gain = sigma_d, until a finite
    # frequency scores higher.
    best_gain, best_w, best_i = sigma_d, math.inf, None
    omegas = sorted(candidates)
    for i, (w, s) in enumerate(zip(omegas, sigma_max(omegas))):
        if s > best_gain:
            best_gain, best_w, best_i = float(s), float(w), i

    if best_gain <= 0.0:
        return locate(PeakGain(0.0, 0.0))

    eps = rtol / 2.0
    # sigma_max of a real system is even in w, so w = 0 is stationary.
    stationary = sys.is_real and best_w == 0.0
    if best_i is not None and not stationary:
        w = _local_peak(omegas, best_i, sigma_slope)
        if w is not None:
            s = float(sigma_max([w])[0])
            if s > best_gain * (1.0 + 2.0 * eps):
                best_gain, best_w = s, w

    for _ in range(PEAK_SEARCH_MAX_ROUNDS):
        gamma = best_gain * (1.0 + 2.0 * eps)
        eigs = yield _Round(_hamiltonian(sys, gamma), locate(PeakGain(best_w, best_gain)))
        freqs = _imag_eig_frequencies(eigs, sys.is_real)
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
    return locate(PeakGain(best_w, best_gain))


def _resume(search, eigs):
    """Send ``eigs`` to a search: its next :class:`_Round`, or its result once it has one.

    ``eigs`` is None to start the search, else the eigenvalues of the last
    round's Hamiltonian.
    """
    try:
        return search.send(eigs)
    except StopIteration as done:
        return done.value


def _solved(search):
    """Run a peak search (see :func:`_peak_search`) to its result, solving each Hamiltonian here.

    It loops :func:`_resume`, solving each :class:`_Round`'s Hamiltonian in
    place by :func:`tanmor._lapack.eigvals_overwrite`, the one eigensolver
    of every certificate.  :func:`peak_gain` and
    :func:`tanmor.selection.select_max_error` run their searches through it.
    """
    ask = _resume(search, None)
    while isinstance(ask, _Round):
        ask = _resume(search, _lapack.eigvals_overwrite(ask.ham))
    return ask


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
    only the absence of imaginary-axis poles.  The poles, responses and
    slopes come from one Schur form of ``sys`` and the evaluator built on
    it, both kept as by :func:`tanmor.freq_sweep`, with no dense LU: a
    first call costs one Schur decomposition and one evaluator build,
    O(n^3), then O(n p q) per response on the modal path or O(n^2) on the
    Schur path, in blocks of at most 2^20 complex entries; a second call
    factors nothing.  Each Hamiltonian is solved in place on the calling
    thread by LAPACK's xGEEV (:func:`tanmor._lapack.eigvals_overwrite`),
    one 2n x 2n array per round.
    :func:`tanmor.selection.select_max_error` runs the same search on g - r,
    with the responses of g cached per parent, and :func:`tanmor.reduce`
    solves each certifying Hamiltonian on a worker thread.

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
    def sigma_slope(w):
        (value,), (slope,) = _response_slopes(sys, [w])
        return _sigma_max_slope(value, slope)

    return _solved(
        _peak_search(
            sys,
            _pole_candidates(_keep_schur_form(sys).poles(), sys.is_real),
            lambda omegas: _sigma_max_batch(_responses(sys, omegas)),
            sigma_slope,
            rtol,
        )
    )


# ---------------------------------------------------------------------------
# error norm
# ---------------------------------------------------------------------------


def error_norm(g: StateSpace, r: StateSpace) -> ErrorEstimate:
    """H2-type norm of the error system g - r, within a stated rounding bound.

    The value is the square root of trace(C Theta C*) for the error system
    ``series_sub(g, r)``, the square root of the frequency integral of
    ||G(jw) - R(jw)||_F^2 scaled as in the module docstring.  Theta is
    known blockwise as [[Theta_g, X], [X*, Theta_r]] instead of by a
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

    The value comes from r-sized pieces (see :func:`_factored_trace`): with
    the parent's Gramian factor L_g, K = L_g^+ X and the Schur complement
    S = Theta_r - K* K, it is ||C_g L_g - C_r K*||_F^2 + trace(C_r S C_r*),
    at O(n^2 r) + O(r^3) cost.  No (n + r)-sized array is formed and no
    (n + r)-sized eigensolve runs, on any input.  The pseudo-inverse leaves
    out the eigenvalues of Theta_g at the eigensolver's noise level (at or
    below eps times the largest, or within the largest clipped negative one
    of zero).  The value is returned when a stated bound vouches for it:
    the negative part of S, the part of X outside the range of L_g, the
    parent's own rounding noise and an a-priori allowance for forming S and
    the C_r terms must together stay within tau = 1e-6 times the larger of
    the value and the summed squared norms of the decoupled diagonal blocks
    (those of g and of r).  The allowance grows with the square of r's
    output map, so a badly scaled realization of r fails it, and the call
    raises with each term of the bound against tau.  g's block sum is kept
    in the per-parent context and r's comes from Theta_r.

    The returned square therefore lies within tau of the trace of the
    computed Theta.  That is an absolute bound: an error far below ||g||
    can be off by much more than 1e-6 relative.  It does not cover the
    forward error of the Lyapunov and Sylvester solves.

    The imaginary-axis check of r reads the poles off the Schur form of
    its split, and that of g off the parent's split.

    Parameters
    ----------
    g, r : StateSpace
        Full and reduced models with matching I/O dimensions and equal
        feedthrough.

    Returns
    -------
    ErrorEstimate
        ``value`` within the bound above; ``approximate`` is always False.

    Raises
    ------
    NonzeroFeedthrough
        If the feedthroughs differ (the norm is infinite).
    InvariantViolation
        If the error system has an imaginary-axis pole (the norm is
        infinite).
    IllConditionedLyapunov
        If a Gramian or block solve fails its residual check, the value is
        not finite, or the rounding bound exceeds tau.
    """
    _check_io(g, r)
    if np.any(g.D != r.D):
        raise NonzeroFeedthrough(
            "the H2 error is infinite when the feedthroughs of g and r differ"
        )
    ctx = _parent_context(g)
    output = "real" if g.is_real and r.is_real else "complex"
    gs, rs = ctx.split(g, output), _schur_split(r, output, keep=True)

    # ||B B*||_F of the error system, from the q x q Gram matrix.
    bbh_norm = np.linalg.norm(g.B.conj().T @ g.B + r.B.conj().T @ r.B, "fro")
    tol = LYAPUNOV_RESIDUAL_RTOL * max(bbh_norm, np.finfo(float).tiny)

    theta_r, _ = _split_gramian(rs, r.B, tol)
    # The stable parts solve T M + M S* + B1_g B1_r* = 0, the antistable
    # parts the sign-flipped equation; V_g and V_r take M back to the
    # states of g and r.
    M = _block_diag(
        _triangular_sylvester(gs.T11, rs.T11, -(gs.B1 @ rs.B1.conj().T), tol)[0],
        _triangular_sylvester(gs.T22, rs.T22, gs.B2 @ rs.B2.conj().T, tol)[0],
    )
    X = gs.to_state(rs.to_state(M.conj().T).conj().T)
    blocks = ctx.blocks(g) + _block_norms(r.A, r.C, theta_r)
    value = _factored_trace(ctx.factor_parts(g), X, theta_r, r.C, blocks)
    return ErrorEstimate(math.sqrt(max(value, 0.0)), False)


class _ParentFactor(NamedTuple):
    """What :func:`_factored_trace` reads of a parent g, computed once per parent.

    ``L`` is the Gramian factor of g (:attr:`GramianResult.factor`, V diag(s)).
    ``s2`` holds s^2, with inf for each s^2 at or below the noise level of
    the eigensolve: the larger of eps times the largest eigenvalue and the
    largest |lam| of the eigenvalues lam < 0 that the factor clipped.
    ``kept`` indexes the finite entries.  ``C`` is C_g, ``CL`` is C_g L,
    ``CL_err`` bounds the rounding of ``CL`` (g_n || |C_g| |L| ||_F), and
    ``noise`` is the parent's own rounding estimate: -sum lam ||C_g v||^2
    over the eigenpairs that the factor clipped, taken from the eigensolve
    it was built by.
    """

    L: np.ndarray
    s2: np.ndarray
    kept: np.ndarray
    C: np.ndarray
    CL: np.ndarray
    CL_err: float
    noise: float


def _gamma(k: int) -> float:
    """sqrt(2) gamma_{k+2}, gamma_j = j u / (1 - j u) with u = eps / 2.

    A length-k inner product, real or complex, is off by at most this times
    the same inner product of absolute values (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sections 3.1 and 3.6); g_0
    covers one rounding.
    """
    ku = (k + 2) * 0.5 * np.finfo(float).eps
    return math.sqrt(2.0) * ku / (1.0 - ku)


def _blocked_gram(K: np.ndarray) -> tuple[np.ndarray, int]:
    """K* K summed over blocks of about sqrt(k) rows of the k x m K, and its error index.

    Each block is an inner product of length at most b, and the c partial
    results are added one by one, so the sum is off by at most
    g_{b+c} |K|^T |K| (Higham 2002, section 3.1) instead of g_k: with
    b = isqrt(k), b + c is about 2 sqrt(k).
    """
    b = max(math.isqrt(K.shape[0]), 1)
    G = K[:b].conj().T @ K[:b]
    for i in range(b, K.shape[0], b):
        G += K[i : i + b].conj().T @ K[i : i + b]
    return G, b + -(-K.shape[0] // b)


def _trace_abs(A: np.ndarray, M: np.ndarray, B: np.ndarray) -> float:
    """trace(|A| |M| |B|^T) for p x n A, n x m M and p x m B."""
    return float(np.sum((np.abs(A) @ np.abs(M)) * np.abs(B)))


def _factored_trace(
    parent: _ParentFactor, X: np.ndarray, theta_r: np.ndarray, C_r: np.ndarray, blocks: float
) -> float:
    """trace(C Theta C*) of an error system g - r from r-sized pieces, within a bound.

    Theta = [[Theta_g, X], [X*, Theta_r]] and C = [C_g, -C_r] are never
    formed.  With the parent's factor L = V diag(s), K = L^+ X (the rows
    (L* X) / s^2 over s^2 above the eigensolve's noise level, see
    :class:`_ParentFactor`; zero rows elsewhere, where dividing rounding
    noise by rounding noise would swamp S), E = X - L K and the Schur
    complement S = Theta_r - K* K,

        Theta = W diag(I, S) W* + [[Theta_g - L L*, E], [E*, 0]],
        W = [[L, 0], [K*, I]],

    so trace(C Theta C*) = ||F||_F^2 + trace(C_r S C_r*) + R with
    F = C_g L - C_r K*: a residual norm, which cannot go negative, plus an
    r x r trace.  R = trace(C_g (Theta_g - L L*) C_g*) - 2 Re trace(C_g E C_r*)
    is left out and bounded instead.  This identity holds for any K, so
    the cut of the pseudo-inverse moves only the size of the terms below,
    never their validity.  The value is returned when four terms sum to at
    most tau = 1e-6 max(value, blocks), the threshold of
    :func:`_checked_trace`; otherwise IllConditionedLyapunov is raised, and
    its message gives each term against tau.  With g_k of :func:`_gamma`,
    u = eps / 2, |.| entrywise and k the number of nonzero rows of K (zero
    rows add nothing to a product):

    * the noise of S, -sum mu ||C_r u||^2 over its eigenpairs with mu < 0:
      the estimate :func:`_checked_trace` makes of Theta, made on the
      r x r matrix that carries Theta's negative part through W;
    * the residual, 2 |Re trace(C_g fl(E) C_r*)| plus what rounding can
      hide from it: g_{n+pr} for the trace itself, and |fl(E) - E| <=
      g_{k+1} (|L| |K| + |X|), both weighted as 2 trace(|C_g| . |C_r|^T);
    * the parent's noise (``parent.noise``), which is
      -trace(C_g (Theta_g - L L*) C_g*);
    * an a-priori allowance for rounding in forming S, trace(C_r S C_r*)
      and ||F||_F^2 from L, K, X and Theta_r.  fl(K* K), summed by row
      blocks (:func:`_blocked_gram`), is off by at most g_j |K|^T |K| with
      j about 2 sqrt(k), and the subtraction from Theta_r by u |S|, which
      moves trace(C_r S C_r*) by at most g_j || |K| |C_r|^T ||_F^2 +
      g_0 trace(|C_r| |Theta_r| |C_r|^T) + u trace(|C_r| |S| |C_r|^T).  The
      trace itself, a length-r product then a sum of p r terms, and the
      Hermitian average of S add g_{(p+1) r} trace(|C_r| |S| |C_r|^T).
      fl(F) is off by at most d = g_{r+1} || |C_g L| + |C_r| |K|^T ||_F
      plus the rounding of C_g L (``parent.CL_err``), which moves
      ||F||_F^2 by at most 2 ||F||_F d + 3 d^2; summing its p n squares
      adds g_{2 p n} ||F||_F^2, and the final sum u |value|.  Since
      K* K <= Theta_r, the leading term is of order eps sqrt(k) ||C_r||_2^2
      trace(Theta_r): it grows with the square of r's output map, so a
      badly scaled realization of r is refused.

    The first and third terms are rounding estimates of the kind
    :func:`_checked_trace` makes; the second and fourth bound the distance
    of the value from trace(C Theta C*) of the computed Theta.  The work is
    O(n^2 r) for K and E and O(r^3) for S, with no (n + r)-sized array.
    The bound does not include the forward error of the Lyapunov and
    Sylvester solves that produced Theta_g, X and Theta_r.

    Raises
    ------
    IllConditionedLyapunov
        If the value is not finite or the four terms exceed tau.
    """
    L, C_g, CL, k = parent.L, parent.C, parent.CL, parent.kept.size
    n, p = L.shape[0], C_r.shape[0]
    m = theta_r.shape[0]
    K = (L.conj().T @ X) / parent.s2[:, None]
    E = X - L @ K
    F = CL - C_r @ K.conj().T
    KK, j = _blocked_gram(K[parent.kept])
    S = theta_r - KK
    S = 0.5 * (S + S.conj().T)
    f2 = float(np.vdot(F, F).real)
    value = f2 + float(np.real(np.sum((C_r @ S) * C_r.conj())))
    if not math.isfinite(value):
        raise IllConditionedLyapunov(f"squared H2 norm {value:.6g} of the error is not finite")

    mu, U = np.linalg.eigh(S)
    neg = mu < 0
    noise = float(-mu[neg] @ np.sum(np.abs(C_r @ U[:, neg]) ** 2, axis=0))

    aK = np.abs(K)
    E_err = _gamma(n + p * m) * np.abs(E) + _gamma(k + 1) * (np.abs(L) @ aK + np.abs(X))
    residual = 2.0 * (
        abs(float(np.real(np.sum((C_g @ E) * C_r.conj())))) + _trace_abs(C_g, E_err, C_r)
    )

    aKC = aK @ np.abs(C_r).T
    d = _gamma(m + 1) * float(np.linalg.norm(np.abs(CL) + aKC.T)) + parent.CL_err
    f = math.sqrt(f2)
    allowance = (
        _gamma(j) * float(np.sum(aKC**2))
        + _gamma(0) * _trace_abs(C_r, theta_r, C_r)
        + _gamma((p + 1) * m + 1) * _trace_abs(C_r, S, C_r)
        + 2.0 * f * d
        + 3.0 * d * d
        + _gamma(2 * p * n) * f2
        + 0.5 * np.finfo(float).eps * abs(value)
    )
    tau = _H2_NOISE_RTOL * max(value, blocks)
    if not noise + residual + parent.noise + allowance <= tau:
        raise IllConditionedLyapunov(
            f"squared H2 norm {value:.6g} of the error carries rounding error bounded by "
            f"{noise:.3e} (negative part of S) + {residual:.3e} (residual) + "
            f"{parent.noise:.3e} (parent noise) + {allowance:.3e} (allowance), above "
            f"tau = {tau:.3e} = {_H2_NOISE_RTOL:g} * max(value, summed block norms {blocks:.6g})"
        )
    return value
