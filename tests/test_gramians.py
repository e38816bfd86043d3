"""Gramians, H2 machinery, peak gain, and the error-norm dispatcher."""

import math
import re

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
from tanmor.lti import IMAG_AXIS_RTOL

from benchmarks import convection_diffusion, flex_structure_model
from helpers import (
    assembled_error_norm,
    decoupled_resonances,
    dense_peak_gain,
    eigvals_sizes,
    grid_peak,
    h2_sq_quadrature,
    naive_tf,
    perturbed_trsyl,
    random_mixed,
    random_stable,
    resonance_peak,
)


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

    def test_coupling_solve_refusal(self, monkeypatch):
        # Only a parent with poles on both sides has a coupling to solve,
        # and that solve comes before either block solve.
        sys = random_mixed(4, 3, 2, 2, seed=30)
        perturbed_trsyl(monkeypatch)
        message = "^stable/antistable coupling solve left residual "
        with pytest.raises(IllConditionedLyapunov, match=message):
            controllability_gramian(sys)

    def test_block_solve_refusal(self, monkeypatch):
        sys = random_stable(8, 2, 2, seed=0)
        perturbed_trsyl(monkeypatch)
        message = r"^Sylvester residual \S+ of a Gramian block exceeds "
        with pytest.raises(IllConditionedLyapunov, match=message):
            controllability_gramian(sys)
        # reduce computes the parent Gramian before its first iteration, so
        # the refusal is raised, not recorded as a stop reason.
        with pytest.raises(IllConditionedLyapunov, match=message):
            reduce(sys, ReducerConfig(SelectionStrategy.max_error(), max_order=4))


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

    @pytest.mark.parametrize(
        "make",
        [flex_structure_model, lambda: random_stable(40, 3, 3, seed=42)],
        ids=["flex-270", "random-40"],
    )
    def test_matches_dense_route(self, make):
        # The cached evaluator's responses and slopes against the same
        # search with one dense LU per response and per slope.
        sys = make()
        ref = dense_peak_gain(sys)
        pg = peak_gain(sys)
        assert pg.gain == pytest.approx(ref.gain, rel=1e-12)
        assert pg.omega_star == pytest.approx(ref.omega_star, rel=1e-10)

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

    def test_crossings_without_improvement_end_the_search(self, monkeypatch):
        # At zeta = 1e-8 the level (1 + rtol) * gain still crosses the
        # resonance numerically: the round reports two near-axis
        # eigenvalues, whose midpoint scores no higher than the local
        # maximum, and that ends the search.
        zeta = 1e-8
        sys = decoupled_resonances((1.0, zeta, 1.0))
        sizes = eigvals_sizes(monkeypatch)
        pg = peak_gain(sys)
        assert sizes == [2 * sys.n]
        npt.assert_allclose(pg.gain, 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta**2)), rtol=1e-6)
        assert pg.omega_star == pytest.approx(1.0, rel=1e-12)

    def test_complex_field_rounds(self, monkeypatch):
        # A real two-resonance system shifted by -7j: G_c(jw) = G(j(w + 7)),
        # so its peaks sit at signed frequencies, the taller resonance at
        # w + 7 = +/-4.53.  The local stage climbs the lower one; the
        # Hamiltonian rounds, with crossings read in the complex field,
        # move to the taller one and then certify it.
        sharp = resonance_peak(2.0, 5e-3)
        base = decoupled_resonances(
            (2.0, 5e-3, 1.0), (5.0, 0.3, 1.005 * sharp / resonance_peak(5.0, 0.3))
        )
        sys = StateSpace(base.A - 7j * np.eye(base.n), base.B, base.C, scalar_field="complex")
        sizes = eigvals_sizes(monkeypatch)
        pg = peak_gain(sys)
        assert sizes == [2 * sys.n] * 3
        npt.assert_allclose(pg.gain, 1.005 * sharp, rtol=1e-6)
        # The two mirror peaks tie, so either may be reported.
        taller = 5.0 * math.sqrt(1.0 - 2.0 * 0.3**2)
        assert abs(pg.omega_star + 7.0) == pytest.approx(taller, rel=1e-6)
        ref = dense_peak_gain(sys)
        assert pg.gain == pytest.approx(ref.gain, rel=1e-12)
        assert abs(pg.omega_star + 7.0) == pytest.approx(abs(ref.omega_star + 7.0), rel=1e-10)

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
    npt.assert_allclose(got, want, rtol=1e-13)


def mixed_complex_parent():
    """The mixed-complex benchmark parent in the realization of benchmark seed 1."""
    base = random_mixed(100, 40, 3, 3, seed=7, field="complex")
    rng = np.random.default_rng(1)
    U = np.linalg.qr(rng.standard_normal((140, 140)) + 1j * rng.standard_normal((140, 140)))[0]
    return StateSpace(
        U @ base.A @ U.conj().T, U @ base.B, base.C @ U.conj().T, base.D, scalar_field="complex"
    )


def record_eigh_sizes(monkeypatch, modules=(np.linalg, sla)):
    """Sizes of the Hermitian eigensolves of ``modules``' eigh, in call order."""
    sizes = []
    for module in modules:
        inner = module.eigh

        def recording(a, *args, _inner=inner, **kwargs):
            sizes.append(a.shape[0])
            return _inner(a, *args, **kwargs)

        monkeypatch.setattr(module, "eigh", recording)
    return sizes


class TestFactoredErrorNorm:
    """The r-sized error norm on the parent's Gramian factor, the one path error_norm takes."""

    def test_mixed_parent_rows_match_stacked_route(self):
        # The mixed-stability benchmark parent, whose models are badly
        # scaled: on its late rows the stacked solve and the (n + r)-sized
        # assembly of error_norm's blocks disagree with each other by up to
        # 4e-7.  Every row agrees with the stacked solve to 1e-7 beyond that
        # disagreement.
        g = mixed_complex_parent()
        strategy = SelectionStrategy.discrete(omega_min=1e-2, omega_max=1e2, K=200)
        trace = reduce(g, ReducerConfig(strategy, max_order=24, track_error=True))
        got = np.array([row.error_norm for row in trace.rows])
        assert got.size == 24 and np.isfinite(got).all()
        want = np.array([math.sqrt(h2_norm_sq(series_sub(g, row.model))) for row in trace.rows])
        assembled = np.array([assembled_error_norm(g, row.model) for row in trace.rows])
        assert np.all(np.abs(got - want) <= 1e-7 * want + np.abs(assembled - want))

    @pytest.mark.parametrize(
        "make_parent, cfg",
        [
            (
                lambda: random_mixed(30, 10, 2, 2, seed=45, field="complex"),
                ReducerConfig(
                    SelectionStrategy.discrete(K=80), max_order=12, rho=0.999, gamma_rel_tol=1e-300
                ),
            ),
            (
                lambda: random_mixed(30, 10, 2, 2, seed=45, field="complex"),
                ReducerConfig(
                    SelectionStrategy.max_error(), max_order=8, rho=0.999, gamma_rel_tol=1e-300
                ),
            ),
            (
                lambda: random_stable(30, 2, 2, seed=46),
                ReducerConfig(SelectionStrategy.discrete(K=50), max_order=10, rho=0.999),
            ),
        ],
        ids=["mixed-discrete", "mixed-maxerr", "stable-discrete"],
    )
    def test_noise_cut_measures_every_row_at_r_size(self, monkeypatch, make_parent, cfg):
        # Rows whose Schur complement S picked up a negative part from
        # dividing by eigenvalues of the parent's Gramian below eps times
        # its largest: with those left out of the pseudo-inverse, every row
        # is measured at r-size.  The only eigensolve of size n or more is
        # the parent's factor, and each value agrees with the stacked
        # error system's guarded trace within the guard's threshold.
        g = make_parent()
        sizes = record_eigh_sizes(monkeypatch)
        trace = reduce(g, cfg)
        assert [n for n in sizes if n >= g.n] == [g.n]
        assert all(n <= cfg.max_order for n in sizes if n < g.n)
        got = np.array([row.error_norm**2 for row in trace.rows])
        assert got.size >= 5 and np.isfinite(got).all()
        g_sq = h2_norm_sq(g)
        for value, row in zip(got, trace.rows):
            want = h2_norm_sq(series_sub(g, row.model))
            assert abs(value - want) <= 1e-6 * max(value, g_sq)

    def test_well_scaled_run_factors_nothing_error_sized(self, monkeypatch):
        # The CLI benchmark's configuration on the 270-state parent: the one
        # factorization or eigensolve of size n is the parent's PSD factor,
        # and nothing of size n + r is assembled, factored or solved.
        sizes = []
        for module, name in ((sla, "cholesky"), (sla, "eigh"), (np.linalg, "eigh")):
            inner = getattr(module, name)

            def recording(a, *args, _inner=inner, _name=name, **kwargs):
                sizes.append((_name, a.shape[0]))
                return _inner(a, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        g = flex_structure_model()
        strategy = SelectionStrategy.discrete(omega_min=0.1, omega_max=100.0, K=200)
        trace = reduce(g, ReducerConfig(strategy, max_order=24, track_error=True))
        assert len(trace.rows) == 12 and all(math.isfinite(r.error_norm) for r in trace.rows)
        assert [n for _, n in sizes if n >= g.n] == [g.n]
        assert all(name == "eigh" and n <= 24 for name, n in sizes if n < g.n)

    def test_convection_diffusion_rows_match_quadrature(self):
        # A strictly stable 256-state parent whose greedy models have output
        # maps of norm 1e4 to 1e7.  Every row the loop measures agrees with
        # quadrature of G - R within the guard's threshold, 1e-6 times the
        # larger of the value and ||g||^2 (no more than the summed block
        # norms), and quadrature's own error estimate lies inside that band;
        # a row that cannot be vouched for is NaN.  G comes from the
        # eigendecomposition of the parent (cond(V) about 500), checked
        # against the dense solve.
        g = convection_diffusion(16, seed=1)
        strategy = SelectionStrategy.discrete(omega_min=0.1, omega_max=1e4, K=200)
        trace = reduce(g, ReducerConfig(strategy, max_order=24, track_error=True))
        assert trace.model.n == 24
        lam, V = np.linalg.eig(g.A)
        Ct, Bt = g.C @ V, np.linalg.solve(V, g.B)

        def parent(s):
            return (Ct / (s - lam)) @ Bt

        for w in (0.1, 10.0, 1e3, 1e5):
            npt.assert_allclose(parent(1j * w), naive_tf(g, 1j * w), rtol=1e-11)
        g_sq = h2_norm_sq(g)
        measured = [row for row in trace.rows if not math.isnan(row.error_norm)]
        assert measured
        for row in measured:
            r = row.model
            got = row.error_norm**2
            band = 1e-6 * max(got, g_sq)
            # Near 1e-6 (orders 18 and 20) the integrand's rounding noise is
            # about 1e-8 of its value, so quad cannot reach rtol there and
            # flags those pieces; it also stops once its estimate is 1e-6 of
            # the band, which it meets on every piece.
            want, want_err = h2_sq_quadrature(
                series_sub(g, r),
                response=lambda s, r=r: parent(s) - naive_tf(r, s),
                with_error=True,
                atol=1e-6 * band,
            )
            assert want_err < band
            assert abs(got - want) <= band


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

    @staticmethod
    def record_factorizations(monkeypatch):
        """Calls of eigh (size, subset) and cholesky (size), in order."""
        calls = []
        np_eigh, sp_eigh, sp_cholesky = np.linalg.eigh, sla.eigh, sla.cholesky

        def np_recording(a, *args, **kwargs):
            calls.append(("eigh", a.shape[0], None))
            return np_eigh(a, *args, **kwargs)

        def sp_recording(a, *args, **kwargs):
            calls.append(("eigh", a.shape[0], kwargs.get("subset_by_value")))
            return sp_eigh(a, *args, **kwargs)

        def cholesky_recording(a, *args, **kwargs):
            calls.append(("cholesky", a.shape[0], None))
            return sp_cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", np_recording)
        monkeypatch.setattr(sla, "eigh", sp_recording)
        monkeypatch.setattr(sla, "cholesky", cholesky_recording)
        return calls

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
        # needs; the r-sized error norm adds eigensolves of order r only.  The
        # (n + r)-sized guard, run on the same run's error systems through
        # h2_norm_sq, asks for the non-positive eigenpairs of each Gramian
        # once.
        calls = self.record_factorizations(monkeypatch)
        cfg = ReducerConfig(strategy, max_order=8, track_error=True)
        trace = reduce(parent, cfg)
        assert trace.rows and all(math.isfinite(row.error_norm) for row in trace.rows)
        big = [(kind, n) for kind, n, _ in calls if kind == "cholesky" or n > cfg.max_order]
        assert big == [("eigh", parent.n)]

        calls.clear()
        for row in trace.rows:
            h2_norm_sq(series_sub(parent, row.model))
        # One solve for the eigenpairs in (-inf, 0] per (n + r) Gramian, and
        # no Cholesky factorization.
        assert calls == [("eigh", parent.n + row.order, (-np.inf, 0.0)) for row in trace.rows]

    def test_block_norms_certify_a_small_error(self, monkeypatch):
        # An error far below the parent's norm, where 1e-6 times the value
        # alone is below the rounding level of the (n + r) trace: the
        # threshold 1e-6 times the summed block norms (those of g and r)
        # lets both error_norm and the guard of h2_norm_sq measure it.
        # error_norm settles it at r-size; the guard, on the stacked error
        # system, runs its one range solve and agrees.
        g = random_stable(20, 2, 2, seed=43)
        r = balanced_truncation(g, 11)
        err = series_sub(g, r)
        theta = controllability_gramian(err).theta
        value = float(np.trace(err.C @ theta @ err.C.T))
        rounding = 2 * err.n * np.finfo(float).eps * np.trace(theta) * np.linalg.norm(err.C) ** 2
        assert rounding > 1e-6 * value
        sizes = record_eigh_sizes(monkeypatch, (sla,))
        factored = error_norm(g, r).value
        assert sizes == []

        got = h2_norm_sq(err)
        assert sizes == [err.n]
        assert math.isfinite(got)
        assert abs(factored**2 - got) <= 1e-6 * max(got, h2_norm_sq(g))

    def test_refusal_names_the_bound_terms(self, reduced):
        # The refusal gives each of the bound's four terms and tau, and the
        # terms it gives sum to more than tau.
        g, r = reduced
        with pytest.raises(IllConditionedLyapunov) as info:
            error_norm(g, self.similar(r, np.logspace(0, -8, r.n)))
        message = str(info.value)
        terms = {}
        for name in ("negative part of S", "residual", "parent noise", "allowance"):
            found = re.search(r"([-+.0-9e]+) \(" + name + r"\)", message)
            assert found, name
            terms[name] = float(found.group(1))
        tau = float(re.search(r"tau = ([-+.0-9e]+)", message).group(1))
        assert sum(terms.values()) > tau

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_zero_order_model(self, field):
        # r with no states: the error is g itself, and r adds no block norms.
        g = random_stable(10, 2, 3, seed=31, field=field)
        r = StateSpace.constant(np.zeros((2, 3)), scalar_field=field)
        got = error_norm(g, r).value
        npt.assert_allclose(got**2, h2_norm_sq(g), rtol=1e-12)

    def test_ill_scaled_realization_reaches_eigensolve(self, monkeypatch, reduced):
        # The cond-1e8 realization fails the r-sized bound, on its
        # allowance for the model's output map, and error_norm refuses it
        # with no eigensolve of size n + r.  On the stacked error system the
        # guard's eigensolve runs and trips.
        g, r = reduced
        r_t = self.similar(r, np.logspace(0, -8, r.n))
        sizes = record_eigh_sizes(monkeypatch)
        with pytest.raises(IllConditionedLyapunov, match="allowance"):
            error_norm(g, r_t)
        assert all(n < g.n + r.n for n in sizes)
        sizes.clear()
        with pytest.raises(IllConditionedLyapunov, match="rounding error"):
            h2_norm_sq(series_sub(g, r_t))
        assert sizes == [g.n + r.n]


def near_axis_model(scale, field):
    """A 4-state model with a damped pair at 3j whose real part is ``scale`` times the band.

    The band is IMAG_AXIS_RTOL (1 + |lam|).  The input to the pair is small,
    so its Gramian block (about 1/|Re|) passes the Lyapunov residual check.
    """
    re = -scale * IMAG_AXIS_RTOL * (1.0 + 3.0)
    if field == "real":
        pair = [[re, 3.0], [-3.0, re]]
    else:
        pair = [[re + 3j, 0.0], [0.0, -1.0 - 0.5j]]
    A = np.zeros((4, 4), dtype=complex if field == "complex" else float)
    A[:2, :2] = pair
    A[2:, 2:] = [[-1.0, 0.5], [0.0, -2.0]]
    A[:2, 2:] = 0.1
    B = np.ones((4, 2))
    B[:2] *= 0.01
    return StateSpace(A, B, np.arange(8.0).reshape(2, 4), scalar_field=field)


def forbid_eigensolvers(monkeypatch):
    def no_eigensolver(*args, **kwargs):
        raise AssertionError("the imaginary-axis check ran an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eig", no_eigensolver)


class TestImaginaryAxisBand:
    """The imaginary-axis check reads the poles off the Schur split's own T."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gramian(self, monkeypatch, field):
        # A pair at half the band is refused, one at twice the band measured.
        forbid_eigensolvers(monkeypatch)
        with pytest.raises(InvariantViolation, match="imaginary axis"):
            controllability_gramian(near_axis_model(0.5, field))
        sys = near_axis_model(2.0, field)
        assert np.isfinite(controllability_gramian(sys).theta).all()
        assert sys not in tanmor.lti._SCHUR_FORMS

    @pytest.mark.parametrize(
        "g_field, r_field",
        [("real", "real"), ("complex", "complex"), ("real", "complex"), ("complex", "real")],
    )
    def test_error_norm(self, monkeypatch, g_field, r_field):
        # The pair sits in r.  With a real g and a complex r, g's complex
        # split is converted from its kept real form; with a complex g and a
        # real r, the pair is checked on r's.
        g = random_stable(6, 2, 2, seed=3, field=g_field)
        forbid_eigensolvers(monkeypatch)
        with pytest.raises(InvariantViolation, match="imaginary axis"):
            error_norm(g, near_axis_model(0.5, r_field))
        value = error_norm(g, near_axis_model(2.0, r_field)).value
        assert math.isfinite(value) and value > 0

    def test_real_parent_converts_its_kept_form(self, monkeypatch):
        # Against a complex r, a real g's complex split is rsf2csf of its
        # kept real form: the error norm Schur-factors r alone, and agrees
        # with the Gramian of the stacked error system.
        g = random_stable(6, 2, 2, seed=3)
        tanmor.gramians._parent_context(g).gramian(g)
        r = near_axis_model(2.0, "complex")
        seen = []
        schur = sla.schur

        def counting(a, *args, **kwargs):
            seen.append(a.shape[0])
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(sla, "schur", counting)
        got = error_norm(g, r).value ** 2
        assert seen == [r.n]
        npt.assert_allclose(got, h2_norm_sq(series_sub(g, r)), rtol=1e-10)


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
