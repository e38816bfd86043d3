"""State-space container, responses, and resolvent plumbing."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import tanmor.lti
from tanmor import (
    DimensionMismatch,
    InvariantViolation,
    ReducerConfig,
    SelectionStrategy,
    SingularResolvent,
    StateSpace,
    controllability_gramian,
    eval_tf,
    freq_sweep,
    is_strictly_stable,
    reduce,
    resolvent_rows,
    series_sub,
)

from benchmarks import flex_structure_model
from helpers import naive_tf, random_mixed, random_stable


def mixed_benchmark_parent(seed):
    """The mixed-complex benchmark parent: a seeded unitary realization of one spectrum."""
    base = random_mixed(100, 40, 3, 3, seed=7, field="complex")
    rng = np.random.default_rng(seed)
    n = base.n
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return StateSpace(U @ base.A @ U.conj().T, U @ base.B, base.C @ U.conj().T, base.D)


def modal_cond(sys):
    """cond(V) of the evaluator's eigenvector matrix, asserting the modal path."""
    ev = tanmor.lti._evaluator(sys)
    assert ev.T is None, "expected the modal path"
    return np.linalg.cond(ev.Q)


def jordan_block(n, lam, p=2, q=2, seed=0):
    """Complex system whose A is one n x n Jordan block (defective)."""
    rng = np.random.default_rng(seed)
    A = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
    B = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return StateSpace(A.astype(complex), B, C, scalar_field="complex")


class TestConstruction:
    def test_real_arrays_are_float64(self):
        sys = StateSpace([[-1, 0], [0, -2]], [[1], [1]], [[1, 0]])
        for mat in (sys.A, sys.B, sys.C, sys.D):
            assert mat.dtype == np.float64

    def test_complex_data_infers_complex_field(self):
        sys = StateSpace([[-1 + 1j]], [[1]], [[1]])
        assert sys.scalar_field == "complex"
        assert sys.A.dtype == np.complex128

    def test_real_data_can_be_forced_complex(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], scalar_field="complex")
        assert not sys.is_real
        assert sys.B.dtype == np.complex128

    def test_complex_data_under_real_field_rejected(self):
        with pytest.raises(InvariantViolation, match="imaginary"):
            StateSpace([[-1 + 1j]], [[1]], [[1]], scalar_field="real")

    def test_default_feedthrough_is_zero(self):
        sys = StateSpace([[-1.0]], [[1.0, 2.0]], [[1.0], [3.0]])
        assert sys.D.shape == (2, 2)
        assert not sys.D.any()

    @pytest.mark.parametrize(
        "a, b, c",
        [
            ([[1, 2, 3]], [[1]], [[1]]),  # A not square
            ([[-1, 0], [0, -1]], [[1]], [[1, 0]]),  # B rows mismatch
            ([[-1]], [[1]], [[1, 0]]),  # C cols mismatch
        ],
    )
    def test_shape_mismatches(self, a, b, c):
        with pytest.raises(DimensionMismatch):
            StateSpace(a, b, c)

    def test_feedthrough_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvariantViolation, match="finite"):
            StateSpace([[np.nan]], [[1.0]], [[1.0]])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([[-1.0]], [[1.0]], [[1.0]], scalar_field="quaternion")

    def test_matrices_are_read_only(self):
        sys = random_stable(3, 1, 1, seed=0)
        with pytest.raises(ValueError):
            sys.A[0, 0] = 7.0

    def test_constant_model(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        sys = StateSpace.constant(d)
        assert sys.n == 0 and (sys.p, sys.q) == (2, 2)
        npt.assert_array_equal(eval_tf(sys, 1j * 3.7), d)


class TestPoles:
    def test_poles_match_eigenvalues(self):
        sys = random_stable(6, 2, 2, seed=1)
        npt.assert_allclose(
            np.sort_complex(sys.poles()), np.sort_complex(np.linalg.eigvals(sys.A))
        )

    def test_imaginary_axis_pole_flagged(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        with pytest.raises(InvariantViolation, match="imaginary axis"):
            osc.assert_no_imaginary_poles()

    def test_strict_stability_margin(self):
        assert is_strictly_stable(random_stable(4, 1, 1, seed=2))
        # An eigenvalue closer to the axis than the relative margin does
        # not count as strictly stable.
        near = StateSpace([[-1e-12]], [[1.0]], [[1.0]])
        assert not is_strictly_stable(near)
        anti = StateSpace([[0.5]], [[1.0]], [[1.0]])
        assert not is_strictly_stable(anti)

    def test_order_zero_is_stable(self):
        assert is_strictly_stable(StateSpace.constant(np.zeros((1, 1))))


class TestEvalTf:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_dense_solve(self, field):
        sys = random_stable(7, 2, 3, seed=3, field=field, feedthrough=True)
        for s in (1j * 0.3, 2.0 + 0.7j, -0.4 + 5j):
            npt.assert_allclose(eval_tf(sys, s), naive_tf(sys, s), rtol=1e-12)

    def test_real_shift_keeps_real_dtype(self):
        sys = random_stable(5, 2, 2, seed=4)
        val = eval_tf(sys, 0.0)
        assert val.dtype == np.float64
        npt.assert_allclose(val, naive_tf(sys, 0.0).real, rtol=1e-12)

    def test_pole_raises(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(SingularResolvent):
            eval_tf(sys, -1.0)

    def test_order_zero(self):
        d = np.array([[2.0]])
        npt.assert_array_equal(eval_tf(StateSpace.constant(d), 1j), d)


class TestFreqSweep:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_eval_tf(self, field):
        """The cached evaluator must reproduce the dense solve."""
        sys = random_stable(9, 2, 3, seed=5, field=field, feedthrough=True)
        omegas = np.geomspace(1e-2, 1e2, 25)
        if field == "complex":
            omegas = np.concatenate([-omegas[::5], omegas])
        for resp in freq_sweep(sys, omegas):
            npt.assert_allclose(
                resp.value, eval_tf(sys, 1j * resp.omega), rtol=1e-10, atol=1e-12
            )

    def test_zero_frequency_real_system_stays_real(self):
        sys = random_stable(4, 2, 2, seed=6)
        resp = freq_sweep(sys, [0.0])[0]
        assert resp.value.dtype == np.float64

    def test_empty_input(self):
        assert freq_sweep(random_stable(3, 1, 1, seed=7), []) == []

    def test_repeated_sweeps_are_consistent(self):
        sys = random_stable(6, 2, 2, seed=8)
        a = freq_sweep(sys, [0.5, 2.0])
        b = freq_sweep(sys, [0.5, 2.0])
        for ra, rb in zip(a, b):
            npt.assert_array_equal(ra.value, rb.value)


class TestEvaluator:
    """The cached per-system evaluator behind freq_sweep and resolvent_rows."""

    # Modal rounding error grows with cond(V): the largest
    # ||G_modal - G_dense||_F / (cond(V) ||G_dense||_F) seen on these
    # parents is 1.9e-15.
    MODAL_RTOL = 1e-13

    FIXTURES = [
        lambda s: random_stable(12, 2, 3, seed=s, feedthrough=True),
        lambda s: random_stable(12, 2, 3, seed=s, field="complex", feedthrough=True),
        lambda s: random_mixed(8, 4, 2, 3, seed=s),
        lambda s: random_mixed(8, 4, 2, 3, seed=s, field="complex"),
    ]
    FIXTURE_IDS = ["real", "complex", "mixed-real", "mixed-complex"]

    @pytest.mark.parametrize("make", FIXTURES, ids=FIXTURE_IDS)
    def test_modal_matches_dense_within_cond_scaled_bound(self, make):
        omegas = np.concatenate([np.geomspace(1e-2, 1e2, 30), -np.geomspace(1e-2, 1e2, 5)])
        for seed in range(5):
            sys = make(seed)
            bound = self.MODAL_RTOL * modal_cond(sys)
            for resp in freq_sweep(sys, omegas):
                want = eval_tf(sys, 1j * resp.omega)
                gap = np.linalg.norm(resp.value - want) / np.linalg.norm(want)
                assert gap <= bound, f"seed {seed}, omega {resp.omega}: {gap:.2e}"

    @pytest.mark.parametrize("make", FIXTURES, ids=FIXTURE_IDS)
    def test_eigenpairs_from_schur_form_match_eig(self, make):
        # lam and V = Q W, W from eig(T) of the cached Schur form, against
        # eig(A): the same eigenvalues, the same unit eigenvectors up to
        # phase, and a residual at rounding level.
        for seed in range(5):
            sys = make(seed)
            ev = tanmor.lti._evaluator(sys)
            V = ev.Q
            scale = np.linalg.norm(sys.A, "fro") * np.linalg.norm(V, "fro")
            assert np.linalg.norm(sys.A @ V - V * ev.lam, "fro") <= 1e-13 * scale
            lam, W = np.linalg.eig(sys.A)
            order = [int(np.argmin(np.abs(lam - x))) for x in ev.lam]
            assert sorted(order) == list(range(sys.n))
            npt.assert_allclose(ev.lam, lam[order], rtol=1e-12)
            overlap = np.abs(np.sum(V.conj() * W[:, order], axis=0))
            npt.assert_allclose(overlap, 1.0, rtol=1e-10)

    @pytest.mark.parametrize(
        "make",
        [lambda make=make, seed=seed: make(seed) for make in FIXTURES for seed in range(5)]
        + [flex_structure_model, lambda: mixed_benchmark_parent(1)],
        ids=[f"{name}-{seed}" for name in FIXTURE_IDS for seed in range(5)]
        + ["flex-270", "mixed-complex-benchmark"],
    )
    def test_modal_choice_matches_eig_route(self, make):
        # The evaluator takes the modal path exactly when eig(A)'s own
        # eigenvector matrix passes the condition test.
        sys = make()
        lam, V = np.linalg.eig(sys.A)
        cond = np.linalg.norm(V, 1) * np.linalg.norm(np.linalg.inv(V), 1)
        assert (tanmor.lti._evaluator(sys).T is None) == (cond <= tanmor.lti.MODAL_COND_MAX)

    def test_poles_are_the_eigenvalues(self):
        sys = random_mixed(8, 4, 2, 3, seed=3)
        lam = tanmor.lti._evaluator(sys).lam
        npt.assert_allclose(
            np.sort_complex(lam), np.sort_complex(np.linalg.eigvals(sys.A)), rtol=1e-12
        )
        # Once the evaluator exists, poles() hands out a copy of its values.
        poles = sys.poles()
        npt.assert_array_equal(poles, lam)
        poles[0] = 0.0
        assert lam[0] != 0.0

    @pytest.mark.parametrize(
        "n, rotate",
        [(5, False), (5, True), (25, False)],
        # At n = 25 the computed eigenvector matrix is exactly singular.
        ids=["triangular", "rotated", "singular-eigenvectors"],
    )
    def test_jordan_block_takes_schur_path(self, n, rotate):
        sys = jordan_block(n, -0.7 + 0.4j)
        if rotate:
            U = np.linalg.qr(
                np.random.default_rng(1).standard_normal((n, n)) + 0j
            )[0]
            sys = StateSpace(U @ sys.A @ U.conj().T, U @ sys.B, sys.C @ U.conj().T)
        assert tanmor.lti._evaluator(sys).T is not None
        for resp in freq_sweep(sys, np.linspace(-3.0, 3.0, 13)):
            npt.assert_allclose(
                resp.value, eval_tf(sys, 1j * resp.omega), rtol=1e-10, atol=1e-12
            )
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for s in (0.9j, -0.2 + 1.3j):
            want = rows @ np.linalg.inv(s * np.eye(n) - sys.A)
            npt.assert_allclose(resolvent_rows(sys, s, rows), want, rtol=1e-10)

    @pytest.mark.parametrize("path", ["modal", "schur"])
    def test_slopes_match_dense_solves_and_differences(self, path):
        # dG(jw)/dw = -j C (jwI - A)^-2 B, from the cached evaluator (either
        # path) and from one dense LU; the latter against central differences.
        if path == "modal":
            sys = random_stable(12, 2, 3, seed=4, feedthrough=True)
        else:
            U = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)) + 0j)[0]
            block = jordan_block(5, -0.7 + 0.4j)
            sys = StateSpace(U @ block.A @ U.conj().T, U @ block.B, block.C @ U.conj().T)
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")
        omegas = [-1.3, 0.0, 0.4, 2.5]
        values, slopes = tanmor.lti._response_slopes(sys, omegas)
        for w, value, slope in zip(omegas, values, slopes):
            dense_value, dense_slope = tanmor.lti._dense_response_slope(sys, w)
            npt.assert_allclose(value, eval_tf(sys, 1j * w), rtol=1e-10, atol=1e-12)
            npt.assert_allclose(dense_value, eval_tf(sys, 1j * w), rtol=1e-12, atol=1e-14)
            npt.assert_allclose(slope, dense_slope, rtol=1e-10, atol=1e-12)
            h = 1e-5
            diff = (eval_tf(sys, 1j * (w + h)) - eval_tf(sys, 1j * (w - h))) / (2 * h)
            npt.assert_allclose(dense_slope, diff, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("path", ["modal", "schur"])
    def test_imaginary_axis_pole_raises(self, path):
        if path == "modal":
            # Real oscillator with poles +/- 1.5j.
            sys = StateSpace([[0.0, 1.5], [-1.5, 0.0]], [[1.0], [0.5]], [[1.0, -1.0]])
        else:
            sys = jordan_block(4, 1.5j)
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")
        with pytest.raises(SingularResolvent):
            freq_sweep(sys, [0.5, 1.5])
        rows = np.ones((1, sys.n), dtype=complex)
        with pytest.raises(SingularResolvent):
            resolvent_rows(sys, 1.5j, rows)
        # Away from the pole both work.
        assert len(freq_sweep(sys, [0.5])) == 1
        assert np.all(np.isfinite(resolvent_rows(sys, 0.5j, rows)))

    def test_cache_releases_its_system(self):
        # A random run evaluates the parent (and every reduced model) through
        # the weak-keyed evaluator cache; it must not keep the parent alive.
        sys = random_stable(20, 2, 2, seed=43)
        ref = weakref.ref(sys)
        strategy = SelectionStrategy.random(K=40, seed=3)
        trace = reduce(sys, ReducerConfig(strategy, max_order=6, track_error=False))
        assert trace.rows
        assert sys in tanmor.lti._EVALUATORS
        del sys
        gc.collect()
        assert ref() is None


class TestSchurFormCache:
    """The one ordered Schur form per system behind the evaluator and the Gramian."""

    def test_evaluator_and_gramian_share_one_factorization(self, monkeypatch):
        sys = random_mixed(8, 4, 2, 3, seed=2, field="complex")
        seen = []
        schur = scipy.linalg.schur

        def counting(a, *args, **kwargs):
            seen.append(a.shape[0])
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        freq_sweep(sys, [0.3, 2.0])
        controllability_gramian(sys)
        assert seen == [sys.n]
        T, Q, k = tanmor.lti._SCHUR_FORMS[sys]
        assert k == 8 and not T.flags.writeable and not Q.flags.writeable

    def test_one_off_gramian_leaves_nothing_behind(self):
        sys = random_stable(10, 2, 2, seed=3)
        controllability_gramian(sys)
        assert sys not in tanmor.lti._SCHUR_FORMS

    def test_cache_releases_its_system(self):
        sys = random_mixed(8, 4, 2, 3, seed=4)
        ref = weakref.ref(sys)
        freq_sweep(sys, [1.0])
        assert sys in tanmor.lti._SCHUR_FORMS
        del sys
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_adjoint_form_is_the_flipped_form(self, field):
        # For a stable A = Q T Q*, A* = (Q J)(J T* J)(Q J)* with J the index
        # reversal; the seeded form of the dual is an ordered Schur form of A*.
        sys = random_stable(9, 2, 2, seed=6, field=field)
        dual = StateSpace(sys.A.conj().T, sys.C.conj().T, sys.B.conj().T)
        tanmor.lti._seed_adjoint_schur_form(sys, dual)
        assert dual not in tanmor.lti._SCHUR_FORMS  # sys has no cached form
        freq_sweep(sys, [1.0])
        tanmor.lti._seed_adjoint_schur_form(sys, dual)
        T, Q, k = tanmor.lti._SCHUR_FORMS[dual]
        assert k == dual.n
        assert np.all(np.tril(T, -2) == 0)
        npt.assert_allclose(Q @ T @ Q.conj().T, dual.A, atol=1e-13 * np.linalg.norm(dual.A))
        npt.assert_allclose(Q.conj().T @ Q, np.eye(dual.n), atol=1e-14)


class TestResolventRows:
    def test_row_solve_oracle(self):
        sys = random_stable(8, 2, 2, seed=9)
        rows = np.random.default_rng(0).standard_normal((3, 8))
        s = 1j * 1.7
        got = resolvent_rows(sys, s, rows)
        want = rows @ np.linalg.inv(s * np.eye(8) - sys.A)
        npt.assert_allclose(got, want, rtol=1e-10)

    def test_complex_system_rows(self):
        sys = random_stable(6, 2, 2, seed=10, field="complex")
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        s = -0.3 + 2.2j
        want = rows @ np.linalg.inv(s * np.eye(6) - sys.A)
        npt.assert_allclose(resolvent_rows(sys, s, rows), want, rtol=1e-10)

    def test_real_shift_real_rows_stay_real(self):
        sys = random_stable(5, 1, 1, seed=11)
        rows = np.eye(5)[:2]
        out = resolvent_rows(sys, 0.0, rows)
        assert out.dtype == np.float64
        npt.assert_allclose(out, rows @ np.linalg.inv(-sys.A), rtol=1e-12)

    def test_wrong_width(self):
        sys = random_stable(4, 1, 1, seed=12)
        with pytest.raises(DimensionMismatch):
            resolvent_rows(sys, 1j, np.ones((1, 3)))


class TestSeriesSub:
    def test_difference_response(self):
        g = random_stable(6, 2, 2, seed=13, feedthrough=True)
        r = random_stable(3, 2, 2, seed=14, feedthrough=True)
        err = series_sub(g, r)
        assert err.n == 9
        for w in (0.0, 0.9, 12.0):
            npt.assert_allclose(
                eval_tf(err, 1j * w),
                eval_tf(g, 1j * w) - eval_tf(r, 1j * w),
                rtol=1e-11,
                atol=1e-13,
            )

    def test_field_promotion(self):
        g = random_stable(3, 1, 1, seed=15)
        r = random_stable(2, 1, 1, seed=16, field="complex")
        assert series_sub(g, r).scalar_field == "complex"

    def test_io_mismatch(self):
        g = random_stable(3, 2, 1, seed=17)
        r = random_stable(3, 1, 1, seed=18)
        with pytest.raises(DimensionMismatch):
            series_sub(g, r)
