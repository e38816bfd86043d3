"""State-space container, responses, and resolvent plumbing."""

import gc
import tracemalloc
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
    peak_gain,
    reduce,
    series_sub,
)
from tanmor.lti import resolvent_rows

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


def real_jordan_block(m, a, b, p=2, q=2, seed=0):
    """Real system whose A is the real Jordan form of one defective pair a +- jb (n = 2m).

    A = kron(I, [[a, b], [-b, a]]) + kron(N, I_2) with N the m x m shift.
    """
    rng = np.random.default_rng(seed)
    A = np.kron(np.eye(m), [[a, b], [-b, a]]) + np.kron(np.eye(m, k=1), np.eye(2))
    return StateSpace(A, rng.standard_normal((2 * m, q)), rng.standard_normal((p, 2 * m)))


def rotated(sys, seed=1):
    """``sys`` in the coordinates of a random orthogonal U, unitary for a complex system."""
    M = np.random.default_rng(seed).standard_normal((sys.n, sys.n))
    U = np.linalg.qr(M if sys.is_real else M + 0j)[0]
    return StateSpace(U @ sys.A @ U.conj().T, U @ sys.B, sys.C @ U.conj().T)


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

    def test_complex_dtype_with_zero_imaginary_parts_stores_real(self):
        # The suite turns NumPy's ComplexWarning (a RuntimeWarning) into an
        # error, so a complex-to-float cast that drops the zero imaginary
        # parts with that warning fails here.
        A = np.array([[-1.0 + 0j, 0.5], [0.0, -2.0]])
        sys = StateSpace(A, np.ones((2, 1)), [[1.0, 0.0]], [[0j]], scalar_field="real")
        npt.assert_array_equal(sys.A, A.real)
        for mat in (sys.A, sys.B, sys.C, sys.D):
            assert mat.dtype == np.float64
        const = StateSpace.constant(np.array([[1 + 0j]]), scalar_field="real")
        assert const.D.dtype == np.float64 and const.D[0, 0] == 1.0

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

    def test_exact_zero_pivot_raises_singular_resolvent(self):
        # sI - A = diag(0, 1) has an exactly zero pivot, on which SciPy's
        # lu_factor warns; the warning must not reach the caller (the suite
        # runs with warnings as errors) ahead of the documented exception.
        sys = StateSpace(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(SingularResolvent):
            eval_tf(sys, -1.0)
        axis = StateSpace(np.diag([0.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(SingularResolvent):
            tanmor.lti._dense_response_slope(axis, 0.0)


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

    @pytest.mark.parametrize("path", ["modal", "schur"])
    def test_blocks_reassemble_one_product(self, path, monkeypatch):
        # A long sweep goes through the evaluator in blocks of bounded
        # temporary size, here 4 frequencies each with a partial last block.
        if path == "modal":
            sys = random_stable(9, 2, 3, seed=5, feedthrough=True)
        else:
            sys = rotated(jordan_block(9, -0.7 + 0.4j, p=2, q=3))
        omegas = np.geomspace(1e-2, 1e2, 25)
        whole = tanmor.lti._responses(sys, omegas)
        monkeypatch.setattr(tanmor.lti, "_RESPONSE_BLOCK", 4 * sys.n * 3)
        npt.assert_allclose(tanmor.lti._responses(sys, omegas), whole, rtol=1e-14, atol=0)
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")

    @pytest.mark.parametrize("path", ["modal", "schur"])
    def test_no_inputs_or_outputs(self, path):
        # p = q = 0: each response is the 0 x 0 matrix eval_tf returns, each
        # slope too, and the peak gain is that of an empty matrix.
        if path == "modal":
            sys = StateSpace(
                -np.diag([1.0, 2.0]), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0))
            )
        else:
            sys = rotated(jordan_block(5, -0.7 + 0.4j, p=0, q=0))
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")
        assert eval_tf(sys, 1j).shape == (0, 0)
        assert [resp.value.shape for resp in freq_sweep(sys, [0.0, 1.0])] == [(0, 0)] * 2
        values, slopes = tanmor.lti._response_slopes(sys, [0.0, 1.0])
        assert values.shape == slopes.shape == (2, 0, 0)
        assert peak_gain(sys).gain == 0.0

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_stable(12, 2, 3, seed=3),
            lambda: random_stable(12, 2, 3, seed=3, field="complex"),
            lambda: random_stable(12, 3, 3, seed=3, feedthrough=True),
            lambda: random_stable(10, 2, 5, seed=3, feedthrough=True),
            lambda: random_stable(10, 5, 2, seed=3, field="complex", feedthrough=True),
        ],
        ids=["real", "complex", "feedthrough", "wide", "tall"],
    )
    def test_residue_product_matches_dense_solves(self, make):
        # The modal path keeps one n x pq residue matrix, row i vec(c_i b_i^T)
        # for c_i column i of C V and b_i row i of V^-1 B, and takes K
        # frequencies as one product of 1/(s - lam) with it.  Values and
        # slopes agree with dense solves within 64 cond(V) eps; the largest
        # gap seen on such parents is 6.1 cond(V) eps.
        sys = make()
        ev = tanmor.lti._evaluator(sys)
        assert ev.T is None
        want = np.einsum("pi,iq->ipq", sys.C @ ev.Q, ev.Qinv @ sys.B)
        npt.assert_allclose(ev.R.reshape(sys.n, sys.p, sys.q), want, rtol=1e-15, atol=0)
        bound = 64 * np.linalg.cond(ev.Q) * np.finfo(float).eps
        omegas = [0.0, 0.05, -1.0, 3.0, 40.0]
        responses = tanmor.lti._responses(sys, omegas)
        values, slopes = tanmor.lti._response_slopes(sys, omegas)
        for w, resp, value, slope in zip(omegas, responses, values, slopes):
            want, dense_slope = eval_tf(sys, 1j * w), tanmor.lti._dense_response_slope(sys, w)[1]
            for got in (resp, value):
                assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want), w
            assert np.linalg.norm(slope - dense_slope) <= bound * np.linalg.norm(dense_slope), w
        if sys.is_real:
            (zero,), want = freq_sweep(sys, [0.0]), eval_tf(sys, 0.0)
            assert zero.value.dtype == np.float64
            assert np.linalg.norm(zero.value - want) <= bound * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: rotated(jordan_block(5, -0.7 + 0.4j)),
            lambda: rotated(real_jordan_block(3, -0.7, 0.4)),
        ],
        ids=["complex", "real"],
    )
    def test_schur_path_keeps_no_residues(self, make):
        # O(n^2) triangular solves per frequency read the transformed input
        # and output maps; no n x pq residue matrix is formed.
        sys = make()
        ev = tanmor.lti._evaluator(sys)
        assert ev.T is not None and ev.R is None
        assert ev.Ct.shape == (sys.p, sys.n) and ev.Bt.shape == (sys.n, sys.q)

    @pytest.mark.parametrize("make", FIXTURES, ids=FIXTURE_IDS)
    def test_eigenpairs_from_schur_form_match_eig(self, make):
        # lam and V = Q W, W from xTREVC on the cached Schur form, against
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_stable(30, 3, 2, seed=11, feedthrough=True),
            lambda: random_stable(30, 3, 2, seed=11, field="complex", feedthrough=True),
            lambda: random_mixed(20, 10, 2, 3, seed=11),
            flex_structure_model,
            lambda: rotated(jordan_block(6, -0.7 + 0.4j)),
            lambda: rotated(real_jordan_block(3, -0.7, 0.4)),
        ],
        ids=["real", "complex", "mixed-real", "flex-270", "defective", "defective-real"],
    )
    def test_triangular_eigendecomposition(self, make):
        # V = Q W and V^-1 = W^-1 Q* from xTREVC and xTRTRI on the kept
        # Schur form: unit columns, V^-1 V = I to within cond(V) rounding
        # (at most 5e-16 cond(V) on these parents, defective ones included),
        # and responses that match dense solves on whichever path the
        # evaluator takes.
        sys = make()
        T, Q, _ = tanmor.lti._schur_form(sys, keep=True)
        lam, V, Vinv = tanmor.lti._eigendecomposition(T, Q)
        cond = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1)
        npt.assert_allclose(np.linalg.norm(V, axis=0), 1.0, rtol=1e-14)
        assert np.linalg.norm(Vinv @ V - np.eye(sys.n), 1) <= 1e-14 * cond
        modal = cond <= tanmor.lti.MODAL_COND_MAX
        assert (tanmor.lti._evaluator(sys).T is None) == modal
        rtol = self.MODAL_RTOL * cond if modal else 1e-10
        for resp in freq_sweep(sys, np.geomspace(1e-2, 1e2, 20)):
            want = eval_tf(sys, 1j * resp.omega)
            assert np.linalg.norm(resp.value - want) <= rtol * np.linalg.norm(want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("side", [0.999, 1.001])
    def test_path_choice_either_side_of_modal_cond_max(self, field, side):
        # Two eigenvalues 1 + eps apart on a triangular block, with
        # eigenvectors closing in on each other as eps -> 0, next to a
        # conjugate pair (real) or a well-separated eigenvalue (complex).
        # eps is bisected until cond(V) of eig(A), the route the evaluator
        # took before its triangular solve, is 0.1% below or above
        # MODAL_COND_MAX; the evaluator must choose as that cond(V) does.
        def system(eps):
            A = scipy.linalg.block_diag(
                [[-1.0, 1.0], [0.0, -1.0 - eps]], [[-0.5, 2.0], [-2.0, -0.5]]
            )
            if field == "complex":
                A = A + np.diag([0.3j, 0.3j, 0.0, 0.0])
            return rotated(StateSpace(A, np.ones((4, 2)), np.ones((2, 4)), scalar_field=field))

        def eig_cond(sys):
            V = np.linalg.eig(sys.A)[1]
            return np.linalg.norm(V, 1) * np.linalg.norm(np.linalg.inv(V), 1)

        target = side * tanmor.lti.MODAL_COND_MAX
        lo, hi = -12.0, 0.0  # log10 eps; cond(V) falls as eps grows
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if eig_cond(system(10.0**mid)) > target else (lo, mid)
        sys = system(10.0**hi)
        cond = eig_cond(sys)
        assert (cond <= tanmor.lti.MODAL_COND_MAX) == (side < 1.0)
        assert abs(cond / target - 1.0) < 5e-4
        lam, V, Vinv = tanmor.lti._eigendecomposition(*tanmor.lti._schur_form(sys)[:2])
        assert abs(np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1) / cond - 1.0) < 1e-6
        assert (tanmor.lti._evaluator(sys).T is None) == (side < 1.0)

    def test_build_runs_no_general_eigensolve(self, monkeypatch):
        # Every path takes its eigenvalues off the Schur factor and its
        # eigenvectors from the triangular solve.
        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(scipy.linalg, "eig", refuse)
        for sys in [
            random_stable(12, 2, 3, seed=4),
            random_stable(12, 2, 3, seed=4, field="complex"),
            rotated(jordan_block(5, -0.7 + 0.4j)),
            rotated(real_jordan_block(3, -0.7, 0.4)),
        ]:
            freq_sweep(sys, [0.5])
            assert sys in tanmor.lti._EVALUATORS

    def test_poles_are_the_eigenvalues(self):
        # poles() reads the diagonal blocks of the ordered Schur form, 2 x 2
        # blocks included for a real system, keeps no new form but reuses a
        # kept one, and hands out a new array each call.
        for field in ("real", "complex"):
            sys = random_mixed(8, 4, 2, 3, seed=3, field=field)
            poles = sys.poles()
            npt.assert_allclose(
                np.sort_complex(poles), np.sort_complex(np.linalg.eigvals(sys.A)), rtol=1e-12
            )
            assert sys not in tanmor.lti._SCHUR_FORMS
            sys.assert_no_imaginary_poles()
            assert sys in tanmor.lti._SCHUR_FORMS
            assert np.array_equal(sys.poles(), poles)
            poles[0] = 0.0
            assert sys.poles()[0] != 0.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: jordan_block(5, -0.7 + 0.4j),
            lambda: rotated(jordan_block(5, -0.7 + 0.4j)),
            lambda: jordan_block(25, -0.7 + 0.4j),
            lambda: rotated(real_jordan_block(3, -0.7, 0.4)),
        ],
        # At n = 25 the computed eigenvector matrix is exactly singular.  The
        # real system's Schur form has 2 x 2 blocks, made complex by rsf2csf.
        ids=["triangular", "rotated", "singular-eigenvectors", "real-rotated"],
    )
    def test_jordan_block_takes_schur_path(self, make):
        sys = make()
        n = sys.n
        assert tanmor.lti._evaluator(sys).T is not None
        if sys.is_real:
            assert np.any(np.diag(tanmor.lti._SCHUR_FORMS[sys][0], -1))
        for resp in freq_sweep(sys, np.linspace(-3.0, 3.0, 13)):
            npt.assert_allclose(
                resp.value, eval_tf(sys, 1j * resp.omega), rtol=1e-10, atol=1e-12
            )
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for s in (0.9j, -0.2 + 1.3j):
            want = rows @ np.linalg.inv(s * np.eye(n) - sys.A)
            npt.assert_allclose(resolvent_rows(sys, s, rows), want, rtol=1e-10)

    @pytest.mark.parametrize("path", ["modal", "schur", "schur-real"])
    def test_slopes_match_dense_solves_and_differences(self, path):
        # dG(jw)/dw = -j C (jwI - A)^-2 B, from the cached evaluator (either
        # path) and from one dense LU; the latter against central differences.
        if path == "modal":
            sys = random_stable(12, 2, 3, seed=4, feedthrough=True)
        elif path == "schur":
            sys = rotated(jordan_block(5, -0.7 + 0.4j))
        else:
            sys = rotated(real_jordan_block(3, -0.7, 0.4))
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

    @pytest.mark.parametrize("path", ["modal", "schur", "schur-real"])
    def test_imaginary_axis_pole_raises(self, path):
        if path == "modal":
            # Real oscillator with poles +/- 1.5j.
            sys = StateSpace([[0.0, 1.5], [-1.5, 0.0]], [[1.0], [0.5]], [[1.0, -1.0]])
        elif path == "schur":
            sys = jordan_block(4, 1.5j)
        else:
            sys = real_jordan_block(2, 0.0, 1.5)
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")
        with pytest.raises(SingularResolvent):
            freq_sweep(sys, [0.5, 1.5])
        rows = np.ones((1, sys.n), dtype=complex)
        with pytest.raises(SingularResolvent):
            resolvent_rows(sys, 1.5j, rows)
        # Away from the pole both work.
        assert len(freq_sweep(sys, [0.5])) == 1
        assert np.all(np.isfinite(resolvent_rows(sys, 0.5j, rows)))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_shifted_solves_leave_no_state_behind(self, field):
        # The Schur path writes each shift onto the diagonal of one work
        # matrix.  Interleaved calls at other shifts must each match a fresh
        # dense solve, and a repeated call its first result bit for bit.
        if field == "real":
            sys = rotated(real_jordan_block(3, -0.7, 0.4))
        else:
            sys = rotated(jordan_block(5, -0.7 + 0.4j))
        ev = tanmor.lti._evaluator(sys)
        assert ev.T is not None
        n = sys.n
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        seen = {}
        for method, s in [
            ("responses", 0.7j), ("rows", -2.0j), ("slopes", 0.7j), ("responses", 1.3j),
            ("rows", 0.7j), ("slopes", -2.0j), ("responses", 0.7j), ("rows", -2.0j),
            ("slopes", 0.7j),
        ]:
            R = np.linalg.inv(s * np.eye(n) - sys.A)
            if method == "responses":
                got, want = ev.responses(np.array([s]))[0], sys.C @ R @ sys.B + sys.D
            elif method == "slopes":
                got = np.stack([x[0] for x in ev.slopes(np.array([s]))])
                want = np.stack([sys.C @ R @ sys.B + sys.D, -1j * (sys.C @ R @ R @ sys.B)])
            else:
                got, want = ev.rows(s, rows), rows @ R
            npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
            first = seen.setdefault((method, s), got)
            assert np.array_equal(got, first), (method, s)
        rows[1, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            resolvent_rows(sys, 0.7j, rows)

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

    def test_real_schur_path_derives_its_complex_form(self, monkeypatch):
        # A real system on the Schur path converts its kept real form by
        # rsf2csf: responses, slopes, row solves and the Gramian together
        # make one Schur decomposition.
        sys = rotated(real_jordan_block(3, -0.7, 0.4))
        seen = []
        schur = scipy.linalg.schur

        def counting(a, *args, **kwargs):
            seen.append(a.shape[0])
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        freq_sweep(sys, [0.3, 2.0])
        tanmor.lti._response_slopes(sys, [0.5])
        resolvent_rows(sys, 1.1j, np.ones((1, sys.n)))
        controllability_gramian(sys)
        assert tanmor.lti._evaluator(sys).T is not None
        assert seen == [sys.n]

    @pytest.mark.parametrize("path", ["modal", "schur", "schur-real"])
    def test_peak_gain_reads_one_form_and_its_evaluator(self, path, monkeypatch):
        # The candidate poles, every response and every local-stage slope
        # come from one kept Schur form and the evaluator built on it, G(0)
        # of a real system included: no dense LU runs, and a second call
        # runs no Schur decomposition either.
        if path == "modal":
            sys = random_stable(12, 2, 3, seed=4, feedthrough=True)
        elif path == "schur":
            sys = rotated(jordan_block(5, -0.7 + 0.4j))
        else:
            sys = rotated(real_jordan_block(3, -0.7, 0.4))
        sizes = {"schur": [], "lu_factor": []}
        for name, seen in sizes.items():

            def counting(a, *args, _inner=getattr(scipy.linalg, name), _seen=seen, **kwargs):
                _seen.append(a.shape[0])
                return _inner(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        first = peak_gain(sys)
        assert sizes["schur"].count(sys.n) == 1
        assert sizes["lu_factor"].count(sys.n) == 0
        assert (tanmor.lti._evaluator(sys).T is None) == (path == "modal")
        for seen in sizes.values():
            seen.clear()
        assert peak_gain(sys) == first
        assert sizes == {"schur": [], "lu_factor": []}

    def test_one_off_pole_query_leaves_nothing_behind(self):
        # A stability check of a system that is then dropped computes its
        # Schur form and keeps none of it: at n = 270 the form is 1.12 MB.
        # A caller inside the package that goes on to use the form keeps it.
        g = flex_structure_model()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert is_strictly_stable(g)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g not in tanmor.lti._SCHUR_FORMS
        assert left < 50_000, f"{left} bytes left behind"
        assert is_strictly_stable(tanmor.lti._keep_schur_form(g))
        assert g in tanmor.lti._SCHUR_FORMS

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
        # A real shift takes the real part of the evaluator's solve, so on
        # the modal path its error grows with cond(V), as at every other
        # shift: at cond(V) = 9.9e5, just under MODAL_COND_MAX, it measured
        # 2.4e-11 relative (0.11 cond(V) eps) against a dense solve.
        A = scipy.linalg.block_diag([[-1.0, 1.0], [0.0, -1.0 - 3.5e-6]], [[-0.5, 2.0], [-2.0, -0.5]])
        sys = rotated(StateSpace(A, np.ones((4, 2)), np.ones((2, 4))))
        ev = tanmor.lti._evaluator(sys)
        cond = np.linalg.norm(ev.Q, 1) * np.linalg.norm(ev.Qinv, 1)
        assert ev.T is None and 0.9 * tanmor.lti.MODAL_COND_MAX < cond
        rows = np.random.default_rng(3).standard_normal((3, 4))
        for s in (0.0, 0.5, -3.0):
            out = resolvent_rows(sys, s, rows)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            want = np.linalg.solve((s * np.eye(4) - sys.A).T, rows.T).T
            assert np.linalg.norm(out - want) <= 2 * np.finfo(float).eps * cond * np.linalg.norm(want)

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


@pytest.mark.parametrize(
    "blocks",
    [
        [np.arange(4.0).reshape(2, 2), np.arange(9.0).reshape(3, 3) - 4.0],
        [np.array([[1 + 2j, -3j], [0.5, 4.0 - 1j]]), np.array([[-2.5 + 0.25j]])],
        [np.ones((2, 3)), np.array([[1j], [2.0], [-1j]]), np.full((1, 2), -0.5)],
        [np.zeros((0, 0)), np.eye(2), np.zeros((0, 0), dtype=complex)],
        [np.zeros((0, 3)), np.ones((2, 0)), np.eye(1)],
        [np.array([[np.pi]])],
    ],
    ids=["real", "complex", "mixed-field-and-sizes", "empty", "empty-edges", "single"],
)
def test_block_diag_matches_scipy(blocks):
    got = tanmor.lti._block_diag(*blocks)
    want = scipy.linalg.block_diag(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
