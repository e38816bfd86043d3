"""Gramians, H2 machinery, peak gain, and the error-norm dispatcher."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import tanmor.gramians
from tanmor import (
    IllConditionedLyapunov,
    InvariantViolation,
    NonzeroFeedthrough,
    ReducerConfig,
    SelectionStrategy,
    StateSpace,
    balanced_truncation,
    controllability_gramian,
    error_norm,
    h2_norm_sq,
    peak_gain,
    psd_factor,
    reduce,
    series_sub,
)

from benchmarks import flex_structure_model
from helpers import grid_peak, h2_sq_quadrature, random_mixed, random_stable


def lyap_defect(sys, theta):
    return np.linalg.norm(
        sys.A @ theta + theta @ sys.A.conj().T + sys.B @ sys.B.conj().T, "fro"
    )


class TestControllabilityGramian:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stable_solve_residual(self, field):
        sys = random_stable(8, 2, 2, seed=0, field=field)
        res = controllability_gramian(sys)
        scale = np.linalg.norm(sys.B @ sys.B.conj().T, "fro")
        assert lyap_defect(sys, res.theta) <= 1e-8 * scale
        assert res.residual <= 1e-8 * scale
        # Hermitian PSD
        npt.assert_allclose(res.theta, res.theta.conj().T, rtol=1e-12, atol=1e-14)
        assert np.linalg.eigvalsh(res.theta).min() >= -1e-10 * abs(
            np.linalg.eigvalsh(res.theta)
        ).max()

    def test_trace_matches_frequency_integral_real(self):
        sys = random_stable(6, 2, 3, seed=1)
        theta = controllability_gramian(sys).theta
        got = float(np.trace(sys.C @ theta @ sys.C.T))
        want = h2_sq_quadrature(sys)
        npt.assert_allclose(got, want, rtol=1e-7)

    def test_trace_matches_frequency_integral_complex(self):
        sys = random_stable(5, 2, 2, seed=2, field="complex")
        theta = controllability_gramian(sys).theta
        got = float(np.real(np.trace(sys.C @ theta @ sys.C.conj().T)))
        want = h2_sq_quadrature(sys)
        npt.assert_allclose(got, want, rtol=1e-7)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["stable", "antistable"])
    def test_matches_dense_lyapunov_solver(self, field, sign):
        """SciPy's Bartels-Stewart solver is the reference on one-sided spectra.

        The antistable Gramian solves the sign-flipped equation
        A Theta + Theta A* = B B*.
        """
        base = random_stable(12, 2, 2, seed=9, field=field)
        sys = StateSpace(sign * base.A, base.B, base.C, scalar_field=field)
        want = sla.solve_continuous_lyapunov(sys.A, -sign * sys.B @ sys.B.conj().T)
        got = controllability_gramian(sys).theta
        npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_mixed_stability_matches_integral(self, field):
        """Poles on both sides: the two-sided resolvent integral is the reference."""
        sys = random_mixed(5, 3, 2, 2, seed=3, field=field)
        res = controllability_gramian(sys)
        got = float(np.real(np.trace(sys.C @ res.theta @ sys.C.conj().T)))
        want = h2_sq_quadrature(sys)
        npt.assert_allclose(got, want, rtol=1e-6)
        assert res.residual <= 1e-8 * np.linalg.norm(sys.B @ sys.B.conj().T, "fro")

    def test_antistable_only(self):
        stable = random_stable(4, 1, 2, seed=4)
        anti = StateSpace(-stable.A, stable.B, stable.C, stable.D)
        theta = controllability_gramian(anti).theta
        got = float(np.trace(anti.C @ theta @ anti.C.T))
        npt.assert_allclose(got, h2_sq_quadrature(anti), rtol=1e-7)

    def test_imaginary_axis_pole_rejected(self):
        osc = StateSpace([[0.0, 2.0], [-2.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        with pytest.raises(InvariantViolation):
            controllability_gramian(osc)

    def test_order_zero(self):
        res = controllability_gramian(StateSpace.constant(np.ones((2, 2))))
        assert res.theta.shape == (0, 0)
        assert res.residual == 0.0


def test_psd_factor_reconstructs():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((6, 4))
    theta = F @ F.T
    L = psd_factor(theta)
    npt.assert_allclose(L @ L.conj().T, theta, rtol=1e-10, atol=1e-12)


class TestH2Norm:
    def test_against_quadrature(self):
        sys = random_stable(7, 2, 2, seed=6)
        npt.assert_allclose(h2_norm_sq(sys), h2_sq_quadrature(sys), rtol=1e-7)

    def test_feedthrough_rejected(self):
        sys = random_stable(3, 1, 1, seed=7, feedthrough=True)
        with pytest.raises(NonzeroFeedthrough):
            h2_norm_sq(sys)

    def test_strict_proper_projection(self):
        sys = random_stable(3, 1, 1, seed=8, feedthrough=True)
        bare = StateSpace(sys.A, sys.B, sys.C, np.zeros((1, 1)))
        npt.assert_allclose(
            h2_norm_sq(sys, strict_proper=True), h2_norm_sq(bare), rtol=1e-13
        )

    def test_order_zero_is_zero(self):
        assert h2_norm_sq(StateSpace.constant(np.zeros((2, 3)))) == 0.0


class TestPeakGain:
    def test_sharp_resonance(self):
        # Pole pair at -0.005 +/- j: peak gain ~ 1/(2*zeta) = 100 near w = 1.
        w0, zeta = 1.0, 5e-3
        sys = StateSpace(
            [[0.0, w0], [-w0, -2 * zeta * w0]], [[0.0], [1.0]], [[1.0, 0.0]]
        )
        pg = peak_gain(sys, rtol=1e-8)
        assert abs(pg.omega_star - w0) < 1e-2
        npt.assert_allclose(pg.gain, 100.0, rtol=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_dense_grid(self, seed):
        sys = random_stable(7, 2, 3, seed=seed, feedthrough=(seed % 2 == 0))
        pg = peak_gain(sys, rtol=1e-6)
        _, grid_max = grid_peak(sys)
        assert grid_max <= pg.gain * 1.01
        assert pg.gain <= grid_max * 1.01

    def test_unstable_system(self):
        sys = random_mixed(4, 3, 2, 2, seed=30)
        pg = peak_gain(sys, rtol=1e-6)
        _, grid_max = grid_peak(sys)
        assert grid_max <= pg.gain * 1.01
        assert pg.gain <= grid_max * 1.01

    def test_complex_system_negative_peak(self):
        # A single complex pole at -0.01 + 3j peaks near w = +3 only; its
        # mirror system peaks near -3.  Signed search must find both.
        a = np.array([[-0.01 + 3.0j]])
        sys = StateSpace(a, [[1.0]], [[1.0]], scalar_field="complex")
        pg = peak_gain(sys)
        assert abs(pg.omega_star - 3.0) < 1e-2
        mirror = StateSpace(a.conj(), [[1.0]], [[1.0]], scalar_field="complex")
        pg2 = peak_gain(mirror)
        assert abs(pg2.omega_star + 3.0) < 1e-2

    def test_supremum_at_infinity(self):
        # G(s) = 1 - 1/(s+1) rises monotonically toward 1; no finite argmax.
        sys = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        pg = peak_gain(sys)
        assert math.isinf(pg.omega_star)
        npt.assert_allclose(pg.gain, 1.0, rtol=1e-12)

    def test_constant_and_zero_systems(self):
        const = peak_gain(StateSpace.constant(np.diag([2.0, 0.5])))
        assert math.isinf(const.omega_star) and const.gain == 2.0
        zero = peak_gain(StateSpace([[-1.0]], [[0.0]], [[0.0]]))
        assert zero.gain == 0.0

    @pytest.mark.parametrize("rtol", [0.0, -1.0, 0.5, 0.7])
    def test_rtol_range(self, rtol):
        sys = random_stable(3, 1, 1, seed=9)
        with pytest.raises(ValueError):
            peak_gain(sys, rtol=rtol)


class TestErrorNorm:
    def test_exact_path(self):
        g = random_stable(8, 2, 2, seed=10)
        r = random_stable(3, 2, 2, seed=11)
        est = error_norm(g, r)
        assert not est.approximate
        want = math.sqrt(h2_sq_quadrature(series_sub(g, r)))
        npt.assert_allclose(est.value, want, rtol=1e-6)

    def test_unstable_reduced_model_is_exact(self):
        g = random_stable(6, 2, 2, seed=12)
        r = random_mixed(2, 2, 2, 2, seed=13)  # reduced model went unstable
        est = error_norm(g, r)
        assert not est.approximate
        want = math.sqrt(h2_sq_quadrature(series_sub(g, r)))
        npt.assert_allclose(est.value, want, rtol=1e-6)

    def test_feedthrough_mismatch(self):
        g = random_stable(3, 1, 1, seed=14, feedthrough=True)
        r = random_stable(2, 1, 1, seed=15)
        with pytest.raises(NonzeroFeedthrough):
            error_norm(g, r)

    def test_imaginary_axis_pole_rejected(self):
        # An undamped mode in r gives the error system an infinite norm.
        g = random_stable(3, 1, 1, seed=16)
        r = StateSpace([[0.0, 2.0], [-2.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        with pytest.raises(InvariantViolation):
            error_norm(g, r)

    def test_matched_feedthrough_cancels(self):
        g = random_stable(5, 2, 2, seed=18, feedthrough=True)
        r = StateSpace(g.A, g.B, g.C, g.D)
        est = error_norm(g, r)
        assert est.value <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        n=st.integers(1, 6),
        n_anti=st.integers(0, 2),
        n_r_stable=st.integers(1, 3),
        p=st.integers(1, 2),
        q=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    def test_matches_quadrature(self, field, n, n_anti, n_r_stable, p, q, seed):
        # Stable (n_anti = 0) or mixed-stability reduced models alike.
        g = random_stable(n, p, q, seed, field=field)
        if n_anti:
            r = random_mixed(n_r_stable, n_anti, p, q, seed + 2, field=field)
        else:
            r = random_stable(n_r_stable, p, q, seed + 2, field=field)
        est = error_norm(g, r)
        want = h2_sq_quadrature(series_sub(g, r))
        npt.assert_allclose(est.value**2, want, rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        n=st.integers(1, 8),
        n_anti=st.integers(0, 3),
        r_kind=st.sampled_from(["empty", "stable", "mixed"]),
        n_r=st.integers(1, 3),
        feedthrough=st.booleans(),
        p=st.integers(1, 2),
        q=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    def test_matches_stacked_h2_norm(
        self, field, n, n_anti, r_kind, n_r, feedthrough, p, q, seed
    ):
        # The blockwise norm against the Lyapunov solve on the stacked
        # error system.  On mixed parents both carry rounding error of the
        # size the rounding guard allows: 1e-6 of the value or of the
        # squared norms of the decoupled blocks (here g and r).
        if n_anti:
            g = random_mixed(max(n - n_anti, 1), n_anti, p, q, seed, field=field)
        else:
            g = random_stable(n, p, q, seed, field=field)
        rng = np.random.default_rng(seed + 1)
        D = rng.standard_normal((p, q)) if feedthrough else np.zeros((p, q))
        if r_kind == "empty":
            r = StateSpace.constant(D, scalar_field=field)
        else:
            r = (
                random_stable(n_r, p, q, seed + 2, field=field)
                if r_kind == "stable"
                else random_mixed(n_r, 1, p, q, seed + 2, field=field)
            )
            r = StateSpace(r.A, r.B, r.C, D, scalar_field=field)
        g = StateSpace(g.A, g.B, g.C, D, scalar_field=field)
        got = error_norm(g, r).value ** 2
        want = h2_norm_sq(series_sub(g, r))
        if n_anti:
            blocks = h2_norm_sq(g, strict_proper=True) + h2_norm_sq(r, strict_proper=True)
            assert abs(got - want) <= 1e-6 * max(want, blocks)
        else:
            npt.assert_allclose(got, want, rtol=1e-10)


def test_error_norm_on_benchmark_matches_stacked_h2_norm():
    # Every row of a max-error run on the 270-state benchmark, and the
    # balanced-truncation baselines, against the stacked Lyapunov solve.
    g = flex_structure_model()
    cfg = ReducerConfig(
        SelectionStrategy.max_error(), max_order=24, rho=0.999, gamma_rel_tol=1e-300
    )
    trace = reduce(g, cfg)
    assert trace.model.n == 24
    baselines = [balanced_truncation(g, k) for k in (8, 16, 24)]
    got = [row.error_norm**2 for row in trace.rows]
    got += [error_norm(g, bt).value ** 2 for bt in baselines]
    models = [row.model for row in trace.rows] + baselines
    want = [h2_norm_sq(series_sub(g, m)) for m in models]
    npt.assert_allclose(got, want, rtol=1e-10)


class TestRoundingGuard:
    def test_non_finite_gramian_raises(self):
        sys = random_stable(4, 2, 2, seed=30)
        theta = controllability_gramian(sys).theta.copy()
        theta[1, 2] = theta[2, 1] = np.nan
        with pytest.raises(IllConditionedLyapunov):
            tanmor.gramians._checked_trace(sys, theta)

    @pytest.fixture(scope="class")
    def reduced(self):
        g = random_stable(12, 2, 2, seed=20)
        trace = reduce(g, ReducerConfig(SelectionStrategy.max_error(), max_order=6))
        assert trace.model.n == 6
        return g, trace.model

    @staticmethod
    def similar(r, spread):
        # T = U diag(spread) W^T with random orthogonal U and W: a
        # non-normal change of coordinates (a diagonal T leaves the guard
        # quiet).
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((r.n, r.n)))[0]
        W = np.linalg.qr(rng.standard_normal((r.n, r.n)))[0]
        T = U @ np.diag(spread) @ W.T
        return StateSpace(np.linalg.solve(T, r.A @ T), np.linalg.solve(T, r.B), r.C @ T, r.D)

    def test_ill_scaled_realization_trips_guard(self, reduced):
        # cond(T) = 1e8: the same model, but its error trace is rounding
        # noise (about -2.2 against an estimate of 4 or more).
        g, r = reduced
        r_t = self.similar(r, np.logspace(0, -8, r.n))
        with pytest.raises(IllConditionedLyapunov):
            error_norm(g, r_t)
        with pytest.raises(IllConditionedLyapunov):
            h2_norm_sq(series_sub(g, r_t))

    def test_moderately_scaled_realization_measures(self, reduced):
        # cond(T) = 1e4 still measures the model's error.
        g, r = reduced
        want = error_norm(g, r).value
        assert math.isfinite(want) and want > 0
        got = error_norm(g, self.similar(r, np.logspace(0, -4, r.n))).value
        npt.assert_allclose(got, want, rtol=1e-4)

    @pytest.mark.parametrize(
        "parent, strategy",
        [
            (random_stable(40, 3, 3, seed=42), SelectionStrategy.max_error()),
            (
                random_mixed(8, 4, 2, 2, seed=3, field="complex"),
                SelectionStrategy.discrete(omega_min=1e-2, omega_max=1e2, K=50),
            ),
        ],
    )
    def test_guard_solves_only_nonpositive_eigenpairs(self, monkeypatch, parent, strategy):
        # The parent's PSD factor is the one full spectrum a tracked run
        # needs.  Each error norm tries one Cholesky factorization of its
        # Gramian, and asks for the eigenpairs in (-inf, 0] only when that
        # certificate fails; a failed factorization always needs them.
        calls = []
        np_eigh, sp_eigh, sp_cholesky = np.linalg.eigh, sla.eigh, sla.cholesky

        def np_recording(a, *args, **kwargs):
            calls.append(("eigh", a.shape[0], None))
            return np_eigh(a, *args, **kwargs)

        def sp_recording(a, *args, **kwargs):
            calls.append(("eigh", a.shape[0], kwargs.get("subset_by_value")))
            return sp_eigh(a, *args, **kwargs)

        def cholesky_recording(a, *args, **kwargs):
            try:
                factor = sp_cholesky(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append(("cholesky", a.shape[0], False))
                raise
            calls.append(("cholesky", a.shape[0], True))
            return factor

        monkeypatch.setattr(np.linalg, "eigh", np_recording)
        monkeypatch.setattr(sla, "eigh", sp_recording)
        monkeypatch.setattr(sla, "cholesky", cholesky_recording)
        trace = reduce(parent, ReducerConfig(strategy, max_order=8, track_error=True))
        assert trace.rows and all(math.isfinite(row.error_norm) for row in trace.rows)
        eighs = [(n, subset) for kind, n, subset in calls if kind == "eigh"]
        assert [n for n, subset in eighs if subset is None] == [parent.n]
        guard = [(n, subset) for n, subset in eighs if n > parent.n]
        assert all(subset == (-np.inf, 0.0) for _, subset in guard)
        sizes = [parent.n + row.order for row in trace.rows]
        assert [n for kind, n, _ in calls if kind == "cholesky"] == sizes
        for size in sizes:
            factored = [ok for kind, n, ok in calls if kind == "cholesky" and n == size]
            solves = [n for n, _ in guard if n == size]
            assert len(solves) <= 1 and (factored[0] or len(solves) == 1)

    @staticmethod
    def run_max_error(g):
        return reduce(g, ReducerConfig(SelectionStrategy.max_error(), max_order=8))

    def test_positive_definite_gramians_skip_eigensolve(self, monkeypatch):
        # Every error Gramian of this run passes the Cholesky certificate,
        # so no (n + r)-sized eigensolve runs; without the certificate the
        # guard solves for the non-positive eigenpairs and returns the same
        # values.
        g = random_stable(40, 3, 3, seed=42)
        sizes = []
        sp_eigh = sla.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return sp_eigh(a, *args, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        certified = self.run_max_error(g)
        assert sizes == []

        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sla, "cholesky", failing)
        plain = self.run_max_error(random_stable(40, 3, 3, seed=42))
        assert sizes == [g.n + row.order for row in plain.rows]
        got = [row.error_norm for row in certified.rows]
        want = [row.error_norm for row in plain.rows]
        assert all(math.isfinite(v) for v in got)
        npt.assert_array_equal(got, want)

    def test_semidefinite_gramians_skip_eigensolve(self, monkeypatch):
        # The benchmark's mixed parent: its Gramian has eigenvalues at
        # rounding level around zero, so a plain Cholesky factorization of
        # an error Gramian (whose leading block it is) fails, but the shifted
        # one certifies rows.  Every value matches the run without any
        # certificate bit for bit.
        def run(parent):
            strategy = SelectionStrategy.discrete(omega_min=1e-2, omega_max=1e2, K=200)
            return reduce(parent, ReducerConfig(strategy, max_order=12, track_error=True))

        def make():
            return random_mixed(100, 40, 3, 3, seed=7, field="complex")

        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky(controllability_gramian(make()).theta)
        sizes = []
        sp_eigh = sla.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return sp_eigh(a, *args, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        certified = run(make())
        rows = [make().n + row.order for row in certified.rows]
        assert len(sizes) < len(rows) and set(sizes) <= set(rows)

        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sla, "cholesky", failing)
        sizes.clear()
        plain = run(make())
        assert sizes == rows
        got = [row.error_norm for row in certified.rows]
        want = [row.error_norm for row in plain.rows]
        assert all(math.isfinite(v) for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_rank_deficient_gramian_is_certified(self, monkeypatch):
        # A rank-3 PSD Theta of order 6 has no plain Cholesky factor, but
        # the shifted factorization certifies its trace with no eigensolve.
        sys = random_stable(6, 2, 2, seed=30)
        L = np.random.default_rng(5).standard_normal((6, 3))
        theta = L @ L.T
        with pytest.raises(np.linalg.LinAlgError):
            sla.cholesky(theta)

        def failing(*args, **kwargs):
            raise AssertionError("the certificate should have settled the check")

        monkeypatch.setattr(sla, "eigh", failing)
        got = tanmor.gramians._checked_trace(sys, theta)
        assert got == float(np.trace(sys.C @ theta @ sys.C.T))

    def test_block_norms_certify_a_small_error(self, monkeypatch):
        # An error far below the parent's norm: the threshold 1e-6 times the
        # value alone is below the certificate's bound, but 1e-6 times the
        # summed block norms (those of g and r) is not, so no eigensolve runs,
        # and the value is the eigensolve path's.
        g = random_stable(20, 2, 2, seed=43)
        r = balanced_truncation(g, 11)
        err = series_sub(g, r)
        theta = controllability_gramian(err).theta
        value = float(np.trace(err.C @ theta @ err.C.T))
        bound = 2 * err.n * np.finfo(float).eps * np.trace(theta) * np.linalg.norm(err.C) ** 2
        assert bound > 1e-6 * value
        sizes = []
        sp_eigh = sla.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return sp_eigh(a, *args, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        got = error_norm(g, r).value
        assert sizes == []

        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sla, "cholesky", failing)
        assert error_norm(g, r).value == got
        assert sizes == [err.n]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_zero_order_model(self, field):
        # r with no states: the error is g itself, and r adds no block norms.
        g = random_stable(10, 2, 3, seed=31, field=field)
        r = StateSpace.constant(np.zeros((2, 3)), scalar_field=field)
        got = error_norm(g, r).value
        npt.assert_allclose(got**2, h2_norm_sq(g), rtol=1e-12)

    def test_ill_scaled_realization_reaches_eigensolve(self, monkeypatch, reduced):
        # The cond-1e8 realization fails the certificate, so the guard's
        # eigensolve runs and trips.
        g, r = reduced
        r_t = self.similar(r, np.logspace(0, -8, r.n))
        sizes = []
        sp_eigh = sla.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return sp_eigh(a, *args, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        with pytest.raises(IllConditionedLyapunov, match="rounding error"):
            error_norm(g, r_t)
        assert sizes == [g.n + r.n]


def flat_trsyl(T, S, rhs, isgn=1, adjoint=True):
    """One LAPACK trsyl call on the whole equation T X + isgn X op(S) = rhs."""
    trsyl = sla.get_lapack_funcs("trsyl", (T, S, rhs))
    tranb = ("T" if trsyl.typecode == "d" else "C") if adjoint else "N"
    X, scale, _ = trsyl(T, S, rhs, tranb=tranb, isgn=isgn)
    return X / scale


def quasi_triangular(n, rng, sign=-1.0):
    """Real upper quasi-triangular matrix with a 2 x 2 block across every split.

    The recursion splits near the middle of each block above the leaf
    size; a complex pair sits on each of those midpoints, so every split
    must step past a block.  ``sign`` sets the half-plane of the spectrum.
    """
    T = np.triu(rng.standard_normal((n, n))) / math.sqrt(n)
    T[np.diag_indices(n)] = sign * (1.0 + rng.random(n))

    def place(lo, hi):
        if hi - lo <= tanmor.gramians._SYLVESTER_LEAF:
            return
        h = lo + (hi - lo) // 2
        a, w = T[h - 1, h - 1], 0.5 + rng.random()
        T[h - 1 : h + 1, h - 1 : h + 1] = [[a, w], [-w, a]]
        place(lo, h + 1)
        place(h + 1, hi)

    place(0, n)
    return T


class TestBlockedSylvester:
    """The recursive blocked solve against one flat LAPACK trsyl call."""

    @staticmethod
    def assert_close(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_real_quasi_triangular_splits_between_blocks(self, monkeypatch):
        rng = np.random.default_rng(0)
        T = quasi_triangular(300, rng)
        rhs = rng.standard_normal((300, 300))
        crossed = []
        split_point = tanmor.gramians._split_point

        def recording(M):
            crossed.append(M[M.shape[0] // 2, M.shape[0] // 2 - 1] != 0)
            return split_point(M)

        monkeypatch.setattr(tanmor.gramians, "_split_point", recording)
        got = tanmor.gramians._blocked_trsyl(T, T, rhs)
        assert len(crossed) > 4 and all(crossed)
        self.assert_close(got, flat_trsyl(T, T, rhs))

    def test_complex_triangular(self):
        rng = np.random.default_rng(1)
        n = 200
        T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        T[np.diag_indices(n)] = -(1.0 + rng.random(n)) + 1j * rng.standard_normal(n)
        rhs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.assert_close(tanmor.gramians._blocked_trsyl(T, T, rhs), flat_trsyl(T, T, rhs))

    def test_rectangular_cross_term(self):
        # The parent-by-model solve of error_norm: n x r with r small.
        rng = np.random.default_rng(2)
        T = quasi_triangular(270, rng)
        S = quasi_triangular(8, rng)
        rhs = rng.standard_normal((270, 8))
        self.assert_close(tanmor.gramians._blocked_trsyl(T, S, rhs), flat_trsyl(T, S, rhs))

    def test_coupling_solve(self):
        # T11 Y - Y T22 = -T12 of the stable/antistable split (isgn = -1,
        # S not transposed); both edges exceed the leaf size.
        rng = np.random.default_rng(3)
        T11 = quasi_triangular(150, rng)
        T22 = quasi_triangular(90, rng, sign=1.0)
        rhs = rng.standard_normal((150, 90))
        got = tanmor.gramians._blocked_trsyl(T11, T22, rhs, isgn=-1, adjoint=False)
        self.assert_close(got, flat_trsyl(T11, T22, rhs, isgn=-1, adjoint=False))

    def test_flex_gramian_bit_identical_to_flat_solve(self, monkeypatch):
        g = flex_structure_model()
        blocked = controllability_gramian(g)
        monkeypatch.setattr(tanmor.gramians, "_SYLVESTER_LEAF", g.n)
        flat = controllability_gramian(flex_structure_model())
        npt.assert_array_equal(blocked.theta, flat.theta)
        assert blocked.residual == flat.residual

    def test_scaled_leaf_falls_back_to_flat_solve(self, monkeypatch):
        # trsyl returns scale < 1 when it shrinks a solution to avoid
        # overflow; the halves would then disagree on scale, so the whole
        # equation goes to one flat call.
        rng = np.random.default_rng(4)
        T = quasi_triangular(150, rng)
        rhs = rng.standard_normal((150, 150))
        want = flat_trsyl(T, T, rhs)
        get_lapack_funcs = sla.get_lapack_funcs
        shapes = []

        def scaled_leaves(names, arrays):
            trsyl = get_lapack_funcs(names, arrays)

            def leaf(a, b, c, **kwargs):
                shapes.append(c.shape)
                x, scale, info = trsyl(a, b, c, **kwargs)
                if c.shape == rhs.shape:
                    return x, scale, info
                return 0.5 * x, 0.5, info

            leaf.typecode, leaf.dtype = trsyl.typecode, trsyl.dtype
            return leaf

        monkeypatch.setattr(sla, "get_lapack_funcs", scaled_leaves)
        got = tanmor.gramians._blocked_trsyl(T, T, rhs)
        assert len(shapes) == 2 and shapes[-1] == rhs.shape
        npt.assert_array_equal(got, want)
