"""Closed-form weight solves: optimality, monotonicity, and the objective."""

import numpy as np
import numpy.testing as npt
import pytest

from tanmor import (
    DimensionMismatch,
    GramianRankCollapse,
    InterpData,
    StateSpace,
    controllability_gramian,
    freq_sweep,
    h2_norm_sq,
    realize_h,
    series_sub,
)
from tanmor.interpolation import InterpPoint, append_point, realize_r, truncated_point
from tanmor.weights import solve_weights

from helpers import build_x, gamma_of, h2_sq_quadrature, random_stable


def sampled_data(sys, omegas, rank=1):
    data = InterpData.empty(sys)
    for resp in freq_sweep(sys, omegas):
        data = append_point(data, sys, truncated_point(resp, 1, rank))
    return data


class TestBaseline:
    def test_empty_data_gives_h2_baseline(self):
        sys = random_stable(6, 2, 3, seed=0)
        theta = controllability_gramian(sys)
        sol = solve_weights(sys, theta, InterpData.empty(sys))
        assert sol.w.shape == (2, 0)
        assert sol.gram_rank == 0
        assert not sol.regularized
        npt.assert_allclose(sol.gamma, h2_sq_quadrature(sys), rtol=1e-7)

    def test_baseline_is_gramian_trace(self):
        sys = random_stable(5, 3, 2, seed=1, field="complex")
        theta = controllability_gramian(sys)
        sol = solve_weights(sys, theta, InterpData.empty(sys))
        want = float(np.real(np.trace(sys.C @ theta.theta @ sys.C.conj().T)))
        npt.assert_allclose(sol.gamma, want, rtol=1e-12)


class TestSolve:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stationarity(self, field):
        sys = random_stable(7, 2, 2, seed=2, field=field)
        theta = controllability_gramian(sys)
        omegas = [0.0, 1.5] if field == "real" else [-0.8, 2.0]
        data = sampled_data(sys, omegas, rank=2)
        sol = solve_weights(sys, theta, data)
        gram = data.tangent_obs @ theta.theta @ data.tangent_obs.conj().T
        cross = sys.C @ theta.theta @ data.tangent_obs.conj().T
        npt.assert_allclose(
            sol.w @ gram, cross, rtol=0, atol=1e-10 * (1 + np.abs(cross).max())
        )

    def test_gamma_of_matches_solver(self):
        sys = random_stable(6, 2, 2, seed=3)
        theta = controllability_gramian(sys)
        data = sampled_data(sys, [0.5, 4.0])
        sol = solve_weights(sys, theta, data)
        x = build_x(sys, theta, data)
        npt.assert_allclose(sol.gamma, gamma_of(x, sol.w), rtol=1e-9, atol=1e-13)

    def test_gamma_is_weighted_error_h2(self):
        """gamma equals the squared H2 norm of [I W] applied to the
        auxiliary error system, which ties the algebra to a transfer
        function a completely independent path can integrate."""
        sys = random_stable(6, 2, 2, seed=4)
        theta = controllability_gramian(sys)
        data = sampled_data(sys, [0.7, 3.0])
        sol = solve_weights(sys, theta, data)
        h = realize_h(data, sys)
        mix = np.hstack([np.eye(sys.p), sol.w])
        weighted = StateSpace(h.A, h.B, mix @ h.C, np.zeros((sys.p, sys.q)))
        npt.assert_allclose(sol.gamma, h2_norm_sq(weighted), rtol=1e-8, atol=1e-12)

    def test_monotone_in_data(self):
        sys = random_stable(9, 2, 2, seed=5)
        theta = controllability_gramian(sys)
        data = InterpData.empty(sys)
        gamma0 = solve_weights(sys, theta, data).gamma
        last = gamma0
        for resp in freq_sweep(sys, [0.0, 0.3, 1.0, 3.0, 10.0]):
            data = append_point(data, sys, truncated_point(resp, 1, 2))
            gamma = solve_weights(sys, theta, data).gamma
            assert gamma <= last + 1e-10 * gamma0
            last = gamma

    def test_exact_recovery_at_full_order(self):
        # One rank-2 point at w > 0 contributes 4 rows: exactly n.
        sys = random_stable(4, 2, 2, seed=6)
        theta = controllability_gramian(sys)
        baseline = solve_weights(sys, theta, InterpData.empty(sys)).gamma
        data = sampled_data(sys, [1.3], rank=2)
        assert data.total_order == sys.n
        sol = solve_weights(sys, theta, data)
        assert sol.gamma <= 1e-8 * baseline
        red = realize_r(data, sol.w, sys.D)
        err = h2_norm_sq(series_sub(sys, red))
        assert err <= 1e-6 * baseline

    def test_oversampling_sets_regularized_flag(self):
        sys = random_stable(4, 2, 2, seed=7)
        theta = controllability_gramian(sys)
        data = sampled_data(sys, [0.4, 1.3, 5.0], rank=2)  # 12 rows > n = 4
        sol = solve_weights(sys, theta, data)
        assert sol.regularized
        assert sol.gram_rank <= sys.n
        baseline = solve_weights(sys, theta, InterpData.empty(sys)).gamma
        assert sol.gamma <= 1e-8 * baseline

    def test_real_parent_gives_real_weights(self):
        sys = random_stable(5, 2, 2, seed=8)
        theta = controllability_gramian(sys)
        sol = solve_weights(sys, theta, sampled_data(sys, [0.0, 2.0]))
        assert sol.w.dtype == np.float64

    def test_zero_output_map_collapses(self):
        sys = StateSpace(-np.eye(3), np.eye(3)[:, :2], np.zeros((2, 3)))
        theta = controllability_gramian(sys)
        pt = InterpPoint(1.0, np.eye(2)[:, :1], [1.0], np.eye(2)[:, :1])
        data = append_point(InterpData.empty(sys), sys, pt)
        with pytest.raises(GramianRankCollapse):
            solve_weights(sys, theta, data)

    def test_shape_guards(self):
        sys = random_stable(4, 2, 2, seed=9)
        other = random_stable(5, 2, 2, seed=10)
        theta = controllability_gramian(sys)
        data = sampled_data(other, [1.0])
        with pytest.raises(DimensionMismatch):
            solve_weights(sys, theta, data)
        with pytest.raises(DimensionMismatch):
            build_x(sys, controllability_gramian(other), sampled_data(sys, [1.0]))


class TestObjectiveMatrix:
    def test_hermitian_psd(self):
        sys = random_stable(5, 2, 2, seed=11, field="complex")
        theta = controllability_gramian(sys)
        data = sampled_data(sys, [-1.0, 2.0])
        x = build_x(sys, theta, data)
        npt.assert_array_equal(x, x.conj().T)
        evals = np.linalg.eigvalsh(x)
        assert evals.min() >= -1e-12 * max(evals.max(), 1.0)

    def test_gamma_of_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            gamma_of(np.eye(3), np.zeros((2, 2)))

    def test_gamma_of_known_value(self):
        # x = identity, w = [[1, 2]]: trace(x11) + 2 tr(w x21) + tr(w x22 w*)
        # with zero cross blocks is 1 + (1 + 4) = 6.
        x = np.eye(3)
        w = np.array([[1.0, 2.0]])
        assert gamma_of(x, w) == pytest.approx(6.0)
