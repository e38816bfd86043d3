"""Interpolation data assembly and the two realizations built from it."""

import numpy as np
import numpy.testing as npt
import pytest

from tanmor import (
    DimensionMismatch,
    DuplicateFrequency,
    FreqResponse,
    IndexOutOfRange,
    InterpData,
    RankDeficient,
    StateSpace,
    eval_tf,
    freq_sweep,
    realize_h,
)
from tanmor.interpolation import (
    InterpPoint,
    append_point,
    extend_point,
    realize_r,
    truncated_point,
)

from helpers import random_stable


def data_with_points(sys, omegas, rank=1):
    data = InterpData.empty(sys)
    for resp in freq_sweep(sys, omegas):
        data = append_point(data, sys, truncated_point(resp, 1, rank))
    return data


class TestInterpPoint:
    def test_rank_and_readonly(self):
        pt = InterpPoint(2.0, np.eye(3)[:, :2], [3.0, 1.0], np.eye(2))
        assert pt.rank == 2
        with pytest.raises(ValueError):
            pt.sigma[0] = 5.0

    def test_sigma_must_be_vector(self):
        with pytest.raises(DimensionMismatch):
            InterpPoint(1.0, np.eye(2), np.eye(2), np.eye(2))

    def test_factor_column_mismatch(self):
        with pytest.raises(DimensionMismatch):
            InterpPoint(1.0, np.eye(3)[:, :1], [2.0, 1.0], np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(RankDeficient):
            InterpPoint(1.0, np.zeros((2, 0)), [], np.zeros((2, 0)))

    def test_nonpositive_sigma(self):
        with pytest.raises(RankDeficient):
            InterpPoint(1.0, np.eye(2), [1.0, 0.0], np.eye(2))

    def test_increasing_sigma(self):
        with pytest.raises(RankDeficient):
            InterpPoint(1.0, np.eye(2), [1.0, 2.0], np.eye(2))

    def test_tied_sigma_allowed(self):
        pt = InterpPoint(1.0, np.eye(2), [1.0, 1.0], np.eye(2))
        assert pt.rank == 2


class TestTruncatedPoint:
    def test_slices_svd(self):
        rng = np.random.default_rng(0)
        value = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        _, s, _ = np.linalg.svd(value)
        pt = truncated_point(FreqResponse(1.5, value), 2, 3)
        npt.assert_array_equal(pt.sigma, s[1:3])
        recon = pt.u @ np.diag(pt.sigma) @ pt.v.conj().T
        u, sv, vh = np.linalg.svd(value)
        want = u[:, 1:3] @ np.diag(sv[1:3]) @ vh[1:3]
        npt.assert_allclose(recon, want, atol=1e-12)

    def test_phase_normalization(self):
        rng = np.random.default_rng(1)
        value = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pt = truncated_point(FreqResponse(2.0, value), 1, 3)
        for i in range(3):
            lead = np.flatnonzero(np.abs(pt.u[:, i]) >= 1e-8)[0]
            entry = pt.u[lead, i]
            assert abs(entry.imag) <= 1e-15 * abs(entry)
            assert entry.real > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        value = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = truncated_point(FreqResponse(1.0, value), 1, 2)
        b = truncated_point(FreqResponse(1.0, value), 1, 2)
        npt.assert_array_equal(a.u, b.u)
        npt.assert_array_equal(a.v, b.v)

    def test_real_value_gives_real_factors(self):
        value = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
        pt = truncated_point(FreqResponse(0.0, value), 1, 2)
        assert pt.u.dtype == np.float64
        assert pt.v.dtype == np.float64

    def test_bad_slice_bounds(self):
        resp = FreqResponse(1.0, np.eye(2))
        with pytest.raises(ValueError):
            truncated_point(resp, 0, 1)
        with pytest.raises(ValueError):
            truncated_point(resp, 2, 1)

    def test_index_beyond_shape(self):
        with pytest.raises(RankDeficient):
            truncated_point(FreqResponse(1.0, np.eye(2)), 1, 3)

    def test_numerically_zero_direction(self):
        value = np.outer([1.0, 2.0], [3.0, 4.0])  # rank one
        with pytest.raises(RankDeficient):
            truncated_point(FreqResponse(1.0, value), 2, 2)
        with pytest.raises(RankDeficient):
            truncated_point(FreqResponse(1.0, np.zeros((2, 2))), 1, 1)


class TestAssembly:
    def test_empty_container(self):
        sys = random_stable(4, 2, 3, seed=3)
        data = InterpData.empty(sys)
        assert data.total_order == 0
        assert data.A_nodes.shape == (0, 0)
        assert data.B_denom.shape == (0, 2)
        assert data.B_numer.shape == (0, 3)
        assert data.tangent_obs.shape == (0, 4)
        assert data.frequencies() == ()

    def test_real_row_budget(self):
        """Rank k costs k rows at w = 0 and 2k rows at w > 0 (real parent)."""
        sys = random_stable(6, 3, 3, seed=4)
        data = data_with_points(sys, [0.0], rank=2)
        assert data.total_order == 2
        data = append_point(
            data, sys, truncated_point(freq_sweep(sys, [1.3])[0], 1, 2)
        )
        assert data.total_order == 6
        assert data.offsets == (0, 2)
        assert data.frequencies() == (0.0, 1.3)

    def test_complex_row_budget(self):
        sys = random_stable(5, 2, 2, seed=5, field="complex")
        data = data_with_points(sys, [-2.0, 0.0, 1.0], rank=2)
        assert data.total_order == 6
        assert data.offsets == (0, 2, 4)

    def test_duplicate_frequency(self):
        sys = random_stable(4, 2, 2, seed=6)
        data = data_with_points(sys, [1.0])
        pt = truncated_point(freq_sweep(sys, [1.0])[0], 1, 1)
        with pytest.raises(DuplicateFrequency):
            append_point(data, sys, pt)

    def test_negative_frequency_real_parent(self):
        sys = random_stable(4, 2, 2, seed=7)
        pt = truncated_point(FreqResponse(-1.0, eval_tf(sys, -1.0j)), 1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            append_point(InterpData.empty(sys), sys, pt)

    def test_parent_shape_guard(self):
        sys = random_stable(4, 2, 2, seed=8)
        other = random_stable(5, 2, 2, seed=9)
        pt = truncated_point(freq_sweep(other, [1.0])[0], 1, 1)
        with pytest.raises(DimensionMismatch):
            append_point(InterpData.empty(sys), other, pt)

    def test_parent_field_guard(self):
        sys = random_stable(4, 2, 2, seed=10)
        promoted = StateSpace(
            sys.A.astype(complex), sys.B, sys.C, sys.D, scalar_field="complex"
        )
        data = InterpData.empty(sys)
        pt = truncated_point(freq_sweep(promoted, [1.0])[0], 1, 1)
        with pytest.raises(DimensionMismatch):
            append_point(data, promoted, pt)

    def test_point_io_shape_guard(self):
        sys = random_stable(4, 2, 2, seed=11)
        pt = InterpPoint(1.0, np.eye(3)[:, :1], [1.0], np.eye(3)[:, :1])
        with pytest.raises(DimensionMismatch):
            append_point(InterpData.empty(sys), sys, pt)

    def test_extend_matches_direct_build(self):
        """Appending rank 1 then extending by the next direction must equal
        building the rank-2 point in one shot, down to the last bit."""
        sys = random_stable(6, 3, 3, seed=12)
        resp = freq_sweep(sys, [0.9])[0]
        direct = append_point(
            InterpData.empty(sys), sys, truncated_point(resp, 1, 2)
        )
        grown = append_point(
            InterpData.empty(sys), sys, truncated_point(resp, 1, 1)
        )
        grown = extend_point(grown, sys, 0, truncated_point(resp, 2, 2))
        npt.assert_array_equal(grown.A_nodes, direct.A_nodes)
        npt.assert_array_equal(grown.B_denom, direct.B_denom)
        npt.assert_array_equal(grown.B_numer, direct.B_numer)
        npt.assert_array_equal(grown.tangent_obs, direct.tangent_obs)
        assert grown.offsets == direct.offsets

    def test_extend_middle_point_relayouts(self):
        sys = random_stable(6, 3, 3, seed=13)
        data = data_with_points(sys, [0.5, 2.0, 7.0])
        assert data.offsets == (0, 2, 4)
        resp = freq_sweep(sys, [2.0])[0]
        data = extend_point(data, sys, 1, truncated_point(resp, 2, 2))
        assert data.offsets == (0, 2, 6)
        assert data.total_order == 8
        assert data.points[1].rank == 2

    def test_extend_bad_index(self):
        sys = random_stable(4, 2, 2, seed=14)
        data = data_with_points(sys, [1.0])
        pt = data.points[0]
        for idx in (-1, 1, 5):
            with pytest.raises(IndexOutOfRange):
                extend_point(data, sys, idx, pt)

    def test_extend_frequency_mismatch(self):
        sys = random_stable(4, 2, 2, seed=15)
        data = data_with_points(sys, [1.0])
        stray = truncated_point(freq_sweep(sys, [3.0])[0], 1, 1)
        with pytest.raises(ValueError, match="does not match"):
            extend_point(data, sys, 0, stray)


class TestRealizeR:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_interpolates_for_any_weight(self, field):
        """The tangential match is structural: it holds for every W."""
        sys = random_stable(8, 3, 3, seed=16, field=field, feedthrough=True)
        omegas = [0.0, 1.7] if field == "real" else [-2.5, 0.0, 1.7]
        data = data_with_points(sys, omegas, rank=2)
        rng = np.random.default_rng(17)
        W = rng.standard_normal((sys.p, data.total_order))
        if field == "complex":
            W = W + 1j * rng.standard_normal(W.shape)
        red = realize_r(data, W, sys.D)
        assert red.n == data.total_order
        for pt in data.points:
            lhs = pt.u.conj().T @ eval_tf(red, 1j * pt.omega)
            rhs = pt.u.conj().T @ eval_tf(sys, 1j * pt.omega)
            npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * (1 + np.abs(rhs).max()))

    def test_real_data_real_weights_stay_real(self):
        sys = random_stable(6, 2, 2, seed=18)
        data = data_with_points(sys, [0.0, 3.0])
        W = np.random.default_rng(19).standard_normal((2, data.total_order))
        red = realize_r(data, W, sys.D)
        for arr in (red.A, red.B, red.C, red.D):
            assert arr.dtype == np.float64

    def test_feedthrough_passes_through(self):
        sys = random_stable(4, 2, 2, seed=20, feedthrough=True)
        data = data_with_points(sys, [1.0])
        red = realize_r(data, np.zeros((2, data.total_order)), sys.D)
        npt.assert_array_equal(red.D, sys.D)

    def test_shape_guards(self):
        sys = random_stable(4, 2, 2, seed=21)
        data = data_with_points(sys, [1.0])
        good_w = np.zeros((2, data.total_order))
        with pytest.raises(DimensionMismatch):
            realize_r(data, np.zeros((2, data.total_order + 1)), sys.D)
        with pytest.raises(DimensionMismatch):
            realize_r(data, good_w, np.zeros((3, 2)))


class TestRealizeH:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_barycentric_residual(self, field):
        """H(s) must equal N(s) - M(s) G(s) built from the raw blocks."""
        sys = random_stable(7, 2, 3, seed=22, field=field, feedthrough=True)
        omegas = [0.0, 2.2] if field == "real" else [-1.1, 0.4]
        data = data_with_points(sys, omegas, rank=2)
        h = realize_h(data, sys)
        assert h.p == sys.p + data.total_order
        assert not h.D.any()
        rng = np.random.default_rng(23)
        for w in rng.uniform(-50.0, 50.0, size=12):
            s = 1j * w
            phi = np.linalg.solve(
                s * np.eye(data.total_order) - data.A_nodes,
                np.eye(data.total_order),
            )
            g = eval_tf(sys, s)
            m = np.vstack([np.eye(sys.p), phi @ data.B_denom])
            n = np.vstack([sys.D, phi @ data.B_numer])
            want = n - m @ g
            got = eval_tf(h, s)
            npt.assert_allclose(got, want, rtol=0, atol=1e-9 * (1 + np.abs(want).max()))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_observability_rows_solve_sylvester(self, field):
        sys = random_stable(6, 2, 2, seed=24, field=field)
        omegas = [0.0, 1.0, 4.0] if field == "real" else [-3.0, 0.0, 1.0]
        data = data_with_points(sys, omegas, rank=2)
        lhs = data.A_nodes @ data.tangent_obs - data.tangent_obs @ sys.A
        rhs = data.B_denom @ sys.C
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * (1 + np.abs(rhs).max()))

    def test_real_blocks_stay_real(self):
        sys = random_stable(5, 2, 2, seed=25)
        data = data_with_points(sys, [0.0, 2.0])
        for arr in (data.A_nodes, data.B_denom, data.B_numer, data.tangent_obs):
            assert arr.dtype == np.float64
        h = realize_h(data, sys)
        assert h.C.dtype == np.float64

    def test_parent_guard(self):
        sys = random_stable(4, 2, 2, seed=26)
        data = data_with_points(sys, [1.0])
        other = random_stable(3, 2, 2, seed=27)
        with pytest.raises(DimensionMismatch):
            realize_h(data, other)
