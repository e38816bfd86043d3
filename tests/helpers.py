"""Shared system builders and slow-but-independent oracles.

Everything here is deliberately naive: dense inverses, adaptive
quadrature, brute-force grids.  The point is to cross-check the library's
fast paths against implementations too simple to share their bugs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate

import tanmor._lapack
import tanmor.gramians as gramians
import tanmor.lti
from tanmor import (
    DimensionMismatch,
    EmptyGrid,
    IllConditionedLyapunov,
    InterpData,
    ReductionTrace,
    StateSpace,
    StrategyKind,
    TanmorError,
    TraceRow,
    controllability_gramian,
    error_norm,
    eval_tf,
    freq_sweep,
    is_strictly_stable,
    series_sub,
)
from tanmor.gramians import psd_factor
from tanmor.interpolation import append_point, extend_point, realize_r, truncated_point
from tanmor.selection import (
    SplitMix64,
    refine,
    select_discrete,
    select_max_error,
    select_random,
)
from tanmor.weights import solve_weights

# ---------------------------------------------------------------------------
# system builders
# ---------------------------------------------------------------------------


def random_stable(n, p, q, seed, field="real", margin=0.5, feedthrough=False):
    """Shifted-Gaussian stable system; minimal with probability one."""
    rng = np.random.default_rng(seed)
    if field == "real":
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, q))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, q)) if feedthrough else np.zeros((p, q))
    else:
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        D = (
            rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            if feedthrough
            else np.zeros((p, q))
        )
    A = A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)
    return StateSpace(A, B, C, D, scalar_field=field)


def random_mixed(n_stable, n_anti, p, q, seed, field="real"):
    """System with poles in both open half-planes (none on the axis)."""
    rng = np.random.default_rng(seed)
    s = random_stable(n_stable, p, q, seed, field=field)
    a = random_stable(n_anti, p, q, seed + 1, field=field)
    n = n_stable + n_anti
    A = np.zeros((n, n), dtype=s.A.dtype)
    A[:n_stable, :n_stable] = s.A
    A[n_stable:, n_stable:] = -a.A  # antistable copy
    B = np.vstack([s.B, a.B])
    C = np.hstack([s.C, a.C])
    # Orthogonal similarity so the split is not visible in the coordinates.
    T = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return StateSpace(
        T @ A @ T.T, T @ B, C @ T.T, np.zeros((p, q)), scalar_field=field
    )


def modal_stable(n_pairs, p, q, seed, wmin=0.3, wmax=30.0):
    """Real modal system with well-separated lightly damped resonances.

    Useful when an oracle needs a smooth, easily integrable response.
    """
    rng = np.random.default_rng(seed)
    freqs = np.geomspace(wmin, wmax, n_pairs)
    zetas = rng.uniform(0.05, 0.4, n_pairs)
    n = 2 * n_pairs
    A = np.zeros((n, n))
    B = np.zeros((n, q))
    C = np.zeros((p, n))
    for k, (w, z) in enumerate(zip(freqs, zetas)):
        i = 2 * k
        A[i, i + 1] = w
        A[i + 1, i] = -w
        A[i + 1, i + 1] = -2.0 * z * w
        B[i + 1, :] = rng.standard_normal(q)
        C[:, i] = rng.standard_normal(p)
    return StateSpace(A, B, C, np.zeros((p, q)))


def resonance_peak(w0, zeta):
    """Peak gain 1 / (2 zeta w0 sqrt(1 - zeta^2)) of w0 / (s^2 + 2 zeta w0 s + w0^2).

    It is attained at w0 sqrt(1 - 2 zeta^2).
    """
    return 1.0 / (2.0 * zeta * w0 * math.sqrt(1.0 - zeta * zeta))


def decoupled_resonances(*channels):
    """Diagonal real system, channel i being k w0 / (s^2 + 2 zeta w0 s + w0^2).

    ``channels`` holds one (w0, zeta, k) triple per channel.
    """
    m = len(channels)
    A, B, C = np.zeros((2 * m, 2 * m)), np.zeros((2 * m, m)), np.zeros((m, 2 * m))
    for i, (w0, zeta, k) in enumerate(channels):
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[0.0, w0], [-w0, -2.0 * zeta * w0]]
        B[2 * i + 1, i] = 1.0
        C[i, 2 * i] = k
    return StateSpace(A, B, C)


def eigvals_sizes(monkeypatch):
    """Record the order of each matrix solved by ``tanmor._lapack.eigvals_overwrite``.

    Returns the list that the orders are appended to.  That kernel is the
    eigensolver of every Hamiltonian the peak search makes, and nothing
    else calls it; the search on an n-state system solves 2n x 2n ones.
    """
    sizes = []
    eigvals = tanmor._lapack.eigvals_overwrite

    def recording(a):
        sizes.append(a.shape[0])
        return eigvals(a)

    monkeypatch.setattr(tanmor._lapack, "eigvals_overwrite", recording)
    return sizes


def perturbed_trsyl(monkeypatch):
    """Scale every solution of ``tanmor.gramians._blocked_trsyl`` by 1 + 1e-6.

    Each Sylvester solve of the Gramian path then leaves a defect of 1e-6
    times its right-hand side, far above the residual bounds the path
    checks, so the first solve that is checked refuses.
    """
    solve = gramians._blocked_trsyl

    def perturbed(*args, **kwargs):
        return solve(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(gramians, "_blocked_trsyl", perturbed)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_tf(sys, s):
    """Transfer function through a dense solve, no factorization tricks."""
    shifted = s * np.eye(sys.n, dtype=complex) - sys.A
    return sys.C @ np.linalg.solve(shifted, sys.B.astype(complex)) + sys.D


def h2_sq_quadrature(sys, rtol=1e-10, response=None, with_error=False, atol=0.0):
    """Squared H2 norm by adaptive quadrature of the response.

    Real systems use the single-sided convention (1/pi) * int_0^inf of the
    squared Frobenius response; complex systems integrate both signs with
    weight 1/(2 pi).  The feedthrough is excluded (it has no H2 norm).
    ``response(s)``, when given, evaluates the strictly proper response of
    ``sys`` at s in place of the dense solve (a caller that can evaluate a
    large part of ``sys`` faster, and has checked that against the dense
    solve); the breakpoints still come from the poles of ``sys``.  Each
    piece stops at the looser of ``rtol`` relative to its own value and
    an even share of ``atol``, an absolute target on the returned value.
    With ``with_error`` set, returns ``(value, abserr)``: ``abserr`` is the
    sum of ``quad``'s own error estimates over the pieces, in the same
    scaling, and is infinite when ``quad`` reports that some piece missed
    its target (roundoff detected, subdivision limit reached, ...), since
    its estimate is then not a bound.
    """
    proper = StateSpace(sys.A, sys.B, sys.C, np.zeros_like(sys.D), sys.scalar_field)
    if response is None:

        def response(s):
            return naive_tf(proper, s)

    def f(w):
        return np.linalg.norm(response(1j * w), "fro") ** 2

    mags = np.abs(np.linalg.eigvals(sys.A))
    cut = 10.0 * max(1.0, float(mags.max())) if mags.size else 10.0
    # Breakpoints within 1e-9 relative of the previous one are dropped: the
    # conjugate pairs of a real A repeat their magnitude up to rounding, and
    # quad reads an interval 1e-16 wide as bad integrand behaviour, which
    # stops it early with an error estimate far above its true error.
    heads = []
    for m in sorted(np.clip(mags, 0.0, cut * 0.99)):
        if not heads or m > heads[-1] * (1.0 + 1e-9):
            heads.append(float(m))
    if sys.is_real:
        pieces = [(0.0, cut, heads, 400), (cut, np.inf, None, 200)]
    else:
        neg_heads = sorted(-m for m in heads)
        pieces = [
            (0.0, cut, heads, 400),
            (-cut, 0.0, neg_heads, 400),
            (cut, np.inf, None, 200),
            (-np.inf, -cut, None, 200),
        ]
    scale = np.pi if sys.is_real else 2.0 * np.pi
    epsabs = atol * scale / len(pieces)
    # full_output returns quad's message instead of warning: it cannot meet
    # epsrel on the near-zero integrands of recovered models, where the
    # error is rounding noise, nor where the integrand's own rounding noise
    # is above rtol (the convection-diffusion rows near 1e-6).
    parts = [
        scipy.integrate.quad(
            f, lo, hi, points=points, limit=limit, epsrel=rtol, epsabs=epsabs, full_output=1
        )
        for lo, hi, points, limit in pieces
    ]
    value = sum(part[0] for part in parts) / scale
    if with_error:
        missed = any(len(part) > 3 for part in parts)
        return value, math.inf if missed else sum(part[1] for part in parts) / scale
    return value


def assembled_error_norm(g, r):
    """``error_norm(g, r)``'s Gramian blocks, assembled and traced at size n + r.

    Theta = [[Theta_g, X], [X*, Theta_r]], where Theta_g is the parent's
    kept Gramian and X and Theta_r are the blocks that ``error_norm(g, r)``
    solves for, caught on their way into its r-sized trace.  Theta is then
    traced against the stacked output map of ``series_sub(g, r)`` under the
    rounding guard of ``h2_norm_sq``, which raises when rounding swamps the
    value.  This reads the same computed blocks as ``error_norm`` through
    an (n + r)-sized formula instead of the factored one.
    """
    caught = {}
    inner = gramians._factored_trace

    def catching(parent, X, theta_r, C_r, blocks):
        caught.update(X=X, theta_r=theta_r)
        return inner(parent, X, theta_r, C_r, blocks)

    gramians._factored_trace = catching
    try:
        gramians.error_norm(g, r)
    except IllConditionedLyapunov:
        if not caught:
            raise
    finally:
        gramians._factored_trace = inner
    X, theta_r = caught["X"], caught["theta_r"]
    theta_g = gramians._parent_context(g).gramian(g).theta
    theta = np.block([[theta_g, X], [X.conj().T, theta_r]])
    return math.sqrt(max(gramians._checked_trace(series_sub(g, r), theta), 0.0))


def grid_peak(sys, num=20000):
    """Brute-force largest response singular value over a dense log grid."""
    mags = np.abs(np.linalg.eigvals(sys.A)) if sys.n else np.array([1.0])
    nz = mags[mags > 0]
    lo = 1e-3 * float(nz.min()) if nz.size else 1e-3
    hi = 1e3 * max(1.0, float(mags.max()))
    grid = np.concatenate([[0.0], np.geomspace(lo, hi, num)])
    if not sys.is_real:
        grid = np.concatenate([-grid[::-1], grid])
    best_w, best = 0.0, -1.0
    for w in grid:
        val = np.linalg.svd(naive_tf(sys, 1j * w), compute_uv=False)
        s = float(val[0]) if val.size else 0.0
        if s > best:
            best_w, best = float(w), s
    return best_w, best


def dense_peak_gain(sys, rtol=1e-6):
    """The peak search of ``peak_gain`` with every response and slope a dense LU.

    The library's ``peak_gain`` before it read the cached evaluator: the
    candidates come from ``sys.poles()``, each sigma_max from ``eval_tf``
    and each local-stage slope from ``tanmor.lti._dense_response_slope``.
    """
    return gramians._solved(
        gramians._peak_search(
            sys,
            gramians._pole_candidates(sys.poles(), sys.is_real),
            lambda omegas: gramians._sigma_max_batch([eval_tf(sys, 1j * w) for w in omegas]),
            lambda w: gramians._sigma_max_slope(*tanmor.lti._dense_response_slope(sys, w)),
            rtol,
        )
    )


def stacked_max_error(g, r, rtol=1e-6):
    """Max-error selection run on the stacked error system g - r.

    The library's selector before it cached the parent's responses: every
    candidate is a dense solve against the (n + r)-state error system
    (:func:`dense_peak_gain`).  Same mapping of the plateau at infinity and
    the same folding for real systems.
    """
    err = series_sub(g, r)
    w = dense_peak_gain(err, rtol).omega_star
    if math.isinf(w):
        poles = err.poles()
        w = 10.0 * float(np.max(np.abs(poles))) if poles.size else 1.0
    if g.is_real and r.is_real:
        w = abs(w)
    return float(w)


def sequential_reduce(sys, cfg):
    """The greedy loop of ``tanmor.reduce``, written with public calls on one thread.

    Each iteration selects a frequency (``select_max_error`` solves its
    Hamiltonians here), refines it, grows the data, re-solves the weights,
    realizes the model and measures it, and only then starts the next.
    Returns a ``ReductionTrace`` whose rows carry ``seconds = 0.0``.
    """
    gram = controllability_gramian(sys)
    data = InterpData.empty(sys)
    base = solve_weights(sys, gram, data)
    gamma0 = gamma = base.gamma
    weights = base.w
    model = realize_r(data, weights, sys.D)
    track = cfg.track_error or cfg.error_rel_tol is not None
    kind = cfg.strategy.kind
    rng = SplitMix64(cfg.strategy.seed) if kind is StrategyKind.RANDOM else None
    rows, last_err, reason = [], math.inf, "max-iters"
    for it in range(1, cfg.max_iters + 1):
        if gamma <= cfg.gamma_rel_tol * gamma0:
            reason = "converged-gamma"
            break
        if cfg.error_rel_tol is not None and last_err <= cfg.error_rel_tol * math.sqrt(gamma0):
            reason = "converged-error"
            break
        if data.total_order >= cfg.max_order:
            reason = "max-order"
            break
        try:
            if kind is StrategyKind.MAX_ERROR:
                omega = select_max_error(sys, model)
            elif kind is StrategyKind.DISCRETE:
                omega = select_discrete(sys, model, cfg.strategy.grid)
            else:
                omega = select_random(sys, model, cfg.strategy, rng)
            ref = refine(sys, data.points, omega, cfg.mu, cfg.rho)
            per_direction = 2 if sys.is_real and ref.omega > 0.0 else 1
            allowed = (cfg.max_order - data.total_order) // per_direction
            if allowed < 1:
                reason = "max-order"
                break
            r_hi = min(ref.r_max, ref.r_min + allowed - 1)
            pt = truncated_point(ref.response, ref.r_min, r_hi)
            if ref.merged_index is None:
                data = append_point(data, sys, pt)
            else:
                data = extend_point(data, sys, ref.merged_index, pt)
            sol = solve_weights(sys, gram, data)
        except (TanmorError, np.linalg.LinAlgError) as exc:
            reason = f"halted[{type(exc).__name__}]: {exc}"
            break
        weights, gamma = sol.w, sol.gamma
        model = realize_r(data, weights, sys.D)
        stable = is_strictly_stable(model)
        err_val = math.nan
        if track:
            try:
                err_val = last_err = error_norm(sys, model).value
            except (TanmorError, np.linalg.LinAlgError):
                pass
        rows.append(
            TraceRow(
                it, ref.omega, ref.r_min, r_hi, data.total_order, gamma, err_val, stable,
                0.0, model, data,
            )
        )
    return ReductionTrace(tuple(rows), model, weights, data, gamma0, reason)


def level_crossings(sys, gamma, tol=1e-8):
    """Frequencies where some singular value of G(jw) crosses ``gamma``.

    They are the imaginary-axis eigenvalues of the Hamiltonian matrix of
    ``sys`` at level ``gamma``, built naively; real systems report |w|.
    """
    A, B, C, D = (M.astype(complex) for M in (sys.A, sys.B, sys.C, sys.D))
    R = np.linalg.inv(gamma**2 * np.eye(sys.q) - D.conj().T @ D)
    S = np.linalg.inv(gamma**2 * np.eye(sys.p) - D @ D.conj().T)
    ham = np.block(
        [
            [A + B @ R @ D.conj().T @ C, B @ R @ B.conj().T],
            [-gamma**2 * C.conj().T @ S @ C, -(A + B @ R @ D.conj().T @ C).conj().T],
        ]
    )
    eigs = np.linalg.eigvals(ham)
    imag = eigs[np.abs(eigs.real) <= tol * (1.0 + np.abs(eigs))].imag
    return np.unique(np.abs(imag) if sys.is_real else imag)


def uncached_discrete(g, r, grid):
    """Discrete selection with the parent evaluated afresh on every call.

    The library's selector before it memoized the parent's grid responses:
    ``freq_sweep`` of g and of r on the sorted, deduplicated grid, and the
    first grid point with the largest sigma_max(G(jw) - R(jw)).
    """
    omegas = np.unique(np.asarray([float(w) for w in grid], dtype=float))
    if omegas.size == 0:
        raise EmptyGrid("discrete selection needs a nonempty grid")
    errs = [
        np.linalg.svd(a.value - b.value, compute_uv=False)[0]
        for a, b in zip(freq_sweep(g, omegas), freq_sweep(r, omegas))
    ]
    return float(omegas[int(np.argmax(errs))])


def build_x(sys, theta, data):
    """The (p + r) x (p + r) objective matrix X of the weight problem.

    X = F F* with F = [C; -Cs] L and Theta = L L*, so that
    gamma(W) = trace([I W] X [I; W*]); Hermitian PSD by construction.
    """
    if data.n != sys.n or data.p != sys.p:
        raise DimensionMismatch(
            f"interpolation data (n={data.n}, p={data.p}) does not match "
            f"system (n={sys.n}, p={sys.p})"
        )
    if theta.theta.shape != (sys.n, sys.n):
        raise DimensionMismatch(
            f"Gramian has shape {theta.theta.shape}, expected ({sys.n}, {sys.n})"
        )
    F = np.vstack([sys.C, -data.tangent_obs]) @ psd_factor(theta.theta)
    X = F @ F.conj().T
    return 0.5 * (X + X.conj().T)


def gamma_of(x, w):
    """The quadratic objective trace([I W] x [I; W*]) by its four blocks."""
    w = np.atleast_2d(np.asarray(w))
    x = np.asarray(x)
    p, r = w.shape
    if x.shape != (p + r, p + r):
        raise DimensionMismatch(
            f"objective matrix has shape {x.shape}, expected ({p + r}, {p + r})"
        )
    val = (
        np.trace(x[:p, :p])
        + np.trace(w @ x[p:, :p])
        + np.trace(x[:p, p:] @ w.conj().T)
        + np.trace(w @ x[p:, p:] @ w.conj().T)
    )
    return float(np.real(val))
