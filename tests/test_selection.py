"""Frequency selection rules, the portable RNG, and refinement decisions."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tanmor
import tanmor.gramians
from tanmor import (
    EmptyGrid,
    InterpData,
    PeakSearchNotConverged,
    RankExhausted,
    SelectionStrategy,
    StateSpace,
    StrategyKind,
    eval_tf,
    freq_sweep,
    peak_gain,
    series_sub,
)
from tanmor.interpolation import append_point, extend_point, truncated_point
from tanmor.selection import (
    SplitMix64,
    refine,
    select_discrete,
    select_max_error,
    select_random,
)

from helpers import (
    decoupled_resonances,
    dense_peak_gain,
    eigvals_sizes,
    level_crossings,
    naive_tf,
    random_mixed,
    random_stable,
    resonance_peak,
    stacked_max_error,
)


def resonant_siso(w0=2.0, zeta=5e-3):
    return StateSpace(
        [[0.0, w0], [-w0, -2 * zeta * w0]], [[0.0], [1.0]], [[1.0, 0.0]]
    )


def zero_like(sys):
    return StateSpace.constant(np.zeros((sys.p, sys.q)))


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs for seed 0, as published with the algorithm.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_float_range_and_mean(self):
        rng = SplitMix64(42)
        draws = [rng.next_float() for _ in range(4000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_streams_reproduce(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1, (1 << 63) + 5])
    def test_vectorized_draws_continue_the_scalar_stream(self, seed):
        # select_random's batch of uniforms, drawn in one uint64 step: the
        # floats of k next_float() calls exactly, and the generator advanced
        # past them, so a second batch goes on where the first stopped.
        scalar, batched = SplitMix64(seed), SplitMix64(seed)
        want = [scalar.next_float() for _ in range(150)]
        first = tanmor.selection._next_floats(batched, 100)
        second = tanmor.selection._next_floats(batched, 50)
        assert all(type(x) is float for x in first + second)
        assert first + second == want
        assert batched.state == scalar.state
        assert tanmor.selection._next_floats(batched, 0) == []
        assert batched.next_float() == scalar.next_float()


class TestSelectionStrategy:
    def test_discrete_auto_grid(self):
        cfg = SelectionStrategy.discrete(omega_min=0.1, omega_max=10.0, K=5)
        assert len(cfg.grid) == 5
        assert cfg.grid[0] == pytest.approx(0.1)
        assert cfg.grid[-1] == pytest.approx(10.0)

    def test_explicit_grid_kept(self):
        cfg = SelectionStrategy.discrete(grid=[0.0, 1.0, 2.5])
        assert cfg.grid == (0.0, 1.0, 2.5)

    def test_max_error_has_no_grid(self):
        assert SelectionStrategy.max_error().grid is None

    def test_kind_from_string(self):
        cfg = SelectionStrategy("random", seed=3)
        assert cfg.kind is StrategyKind.RANDOM
        assert cfg.seed == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 0},
            {"omega_min": 0.0},
            {"omega_min": 5.0, "omega_max": 1.0},
            {"grid": (-1.0, 2.0)},
            {"grid": (2.0, 1.0)},
            {"grid": (1.0, 1.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionStrategy(StrategyKind.DISCRETE, **kwargs)


class TestSelectMaxError:
    def test_finds_resonance(self):
        g = resonant_siso(w0=2.0)
        w = select_max_error(g, zero_like(g))
        assert abs(w - 2.0) < 0.02

    def test_result_nonnegative_for_real(self):
        g = random_stable(6, 2, 2, seed=0)
        r = random_stable(2, 2, 2, seed=1)
        assert select_max_error(g, r) >= 0.0

    def test_supremum_at_infinity_maps_to_pole_scale(self):
        # G = 1 - 1/(s+1) has its supremum only in the limit; the selector
        # must come back with a usable finite frequency instead.
        g = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        w = select_max_error(g, StateSpace.constant([[0.0]]))
        assert w == pytest.approx(10.0)

    def test_static_error_defaults_to_one(self):
        g = StateSpace.constant([[2.0]])
        w = select_max_error(g, StateSpace.constant([[0.0]]))
        assert w == pytest.approx(1.0)

    def test_matches_dense_grid_argmax(self):
        g = random_stable(8, 2, 2, seed=2)
        r = random_stable(3, 2, 2, seed=3)
        w = select_max_error(g, r, rtol=1e-8)
        grid = np.geomspace(1e-3, 1e3, 20000)
        errs = [
            np.linalg.svd(eval_tf(g, 1j * x) - eval_tf(r, 1j * x), compute_uv=False)[0]
            for x in grid
        ]
        peak_grid = max(errs)
        peak_found = np.linalg.svd(
            eval_tf(g, 1j * w) - eval_tf(r, 1j * w), compute_uv=False
        )[0]
        assert peak_found >= peak_grid * 0.999

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_schur_form_per_system(self, field, monkeypatch):
        # The poles of g and r and their response evaluators read one Schur
        # form each: a standalone call on systems with none kept yet
        # factors each A once.
        g = random_stable(8, 2, 2, seed=2, field=field)
        r = random_stable(3, 2, 2, seed=3, field=field)
        seen = []
        schur = scipy.linalg.schur

        def counting(a, *args, **kwargs):
            seen.append("g" if a is g.A else "r" if a is r.A else a.shape)
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        select_max_error(g, r)
        assert sorted(seen) == ["g", "r"]

    @settings(max_examples=25, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        n=st.integers(1, 6),
        r_kind=st.sampled_from(["empty", "stable", "mixed"]),
        n_r=st.integers(1, 3),
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        feedthrough=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_stacked_path(self, field, n, r_kind, n_r, p, q, feedthrough, seed):
        # The cached G(jw) - R(jw) evaluation against the dense solves on
        # the stacked error system: same gain within rtol, and the frequency
        # in the same Bruinsma-Steinbuch bracket, i.e. between the same two
        # crossings of the level gain / (1 + 2 rtol).
        rtol = 1e-6
        g = random_stable(n, p, q, seed, field=field, feedthrough=feedthrough)
        if r_kind == "empty":
            r = StateSpace.constant(np.zeros((p, q)), scalar_field=field)
        elif r_kind == "stable":
            r = random_stable(n_r, p, q, seed + 1, field=field, feedthrough=feedthrough)
        else:
            r = random_mixed(n_r, 1, p, q, seed + 1, field=field)
        err = series_sub(g, r)
        ref = dense_peak_gain(err, rtol)
        assert peak_gain(err, rtol).gain == pytest.approx(ref.gain, rel=2 * rtol)
        w = select_max_error(g, r, rtol)
        if math.isinf(ref.omega_star):
            assert w == pytest.approx(stacked_max_error(g, r, rtol), rel=1e-10)
            return
        gain = np.linalg.svd(naive_tf(err, 1j * w), compute_uv=False)[0]
        assert gain == pytest.approx(ref.gain, rel=2 * rtol)
        crossings = level_crossings(err, ref.gain / (1 + 2 * rtol))
        w_ref = abs(ref.omega_star) if err.is_real else ref.omega_star
        if err.is_real:
            crossings = np.concatenate([[0.0], crossings])
        below = crossings[crossings <= w_ref * (1 + 1e-9) + 1e-12]
        above = crossings[crossings >= w_ref * (1 - 1e-9) - 1e-12]
        lo = below.max() if below.size else -math.inf
        hi = above.min() if above.size else math.inf
        slack = 1e-9 * max(1.0, abs(w_ref))
        assert lo - slack <= w <= hi + slack

    @pytest.mark.parametrize("w0, zeta", [(2.0, 5e-3), (0.5, 0.05), (10.0, 0.2)])
    def test_local_stage_lands_on_analytic_peak(self, w0, zeta):
        # |G(jw)| of w0 / (s^2 + 2 zeta w0 s + w0^2) peaks at
        # w0 sqrt(1 - 2 zeta^2).  The pole candidates miss that by about
        # zeta^2 / 2 relative, and rtol is 1e-6; agreement to 1e-10 in w
        # shows that the local stage lands on the argmax itself.
        g = resonant_siso(w0, zeta)
        w_star = w0 * math.sqrt(1.0 - 2.0 * zeta**2)
        gain = resonance_peak(w0, zeta)
        pg = peak_gain(g)
        assert pg.omega_star == pytest.approx(w_star, rel=1e-10)
        assert pg.gain == pytest.approx(gain, rel=1e-12)
        w = select_max_error(g, zero_like(g))
        assert w == pytest.approx(w_star, rel=1e-10)
        assert abs(eval_tf(g, 1j * w)[0, 0]) == pytest.approx(gain, rel=1e-12)

    def test_max_error_leaves_scipy_optimize_unloaded(self):
        # The local stage is written out by hand: importing scipy.optimize
        # alone adds about 18 MB to the resident set of a process.
        code = textwrap.dedent(
            """
            import sys
            import tanmor
            g = tanmor.StateSpace([[0.0, 2.0], [-2.0, -0.02]], [[0.0], [1.0]], [[1.0, 0.0]])
            cfg = tanmor.ReducerConfig(tanmor.SelectionStrategy.max_error(), max_order=2)
            trace = tanmor.reduce(g, cfg)
            print(len(trace.rows), "scipy.optimize" in sys.modules)
            """
        )
        src = str(pathlib.Path(tanmor.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["1", "False"]

    def test_unconverged_search_raises(self, monkeypatch):
        # A sharp resonance and a broad one 0.5% higher.  The pole
        # candidates sit on the sharp peak but about 1% below the broad
        # one, so the local stage climbs the lower peak, and the
        # Hamiltonian rounds must find the higher one and certify it:
        # more than one round.
        sharp = resonance_peak(2.0, 5e-3)
        g = decoupled_resonances(
            (2.0, 5e-3, 1.0), (5.0, 0.3, 1.005 * sharp / resonance_peak(5.0, 0.3))
        )
        w_broad = 5.0 * math.sqrt(1.0 - 2.0 * 0.3**2)
        sizes = eigvals_sizes(monkeypatch)
        assert select_max_error(g, zero_like(g)) == pytest.approx(w_broad, rel=1e-4)
        assert sizes.count(2 * g.n) >= 2
        sizes.clear()
        assert peak_gain(g).gain == pytest.approx(1.005 * sharp, rel=1e-6)
        assert sizes.count(2 * g.n) >= 2
        monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", 1)
        with pytest.raises(PeakSearchNotConverged, match="1 Hamiltonian rounds"):
            select_max_error(g, zero_like(g))
        with pytest.raises(PeakSearchNotConverged):
            peak_gain(g)


class TestSelectDiscrete:
    def test_picks_grid_point_nearest_peak(self):
        g = resonant_siso(w0=2.0)
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        assert select_discrete(g, zero_like(g), grid) == 2.0

    def test_tie_resolves_to_smallest(self):
        g = StateSpace.constant(np.diag([3.0, 1.0]))
        r = StateSpace.constant(np.zeros((2, 2)))
        assert select_discrete(g, r, [5.0, 0.25, 1.0]) == 0.25

    def test_duplicate_grid_entries_collapse(self):
        g = resonant_siso()
        w = select_discrete(g, zero_like(g), [2.0, 2.0, 2.0])
        assert w == 2.0

    def test_empty_grid(self):
        g = resonant_siso()
        with pytest.raises(EmptyGrid):
            select_discrete(g, zero_like(g), [])


class TestSelectRandom:
    def test_reproducible(self):
        g = random_stable(6, 2, 2, seed=4)
        r = random_stable(2, 2, 2, seed=5)
        cfg = SelectionStrategy.random(K=50, seed=11)
        assert select_random(g, r, cfg) == select_random(g, r, cfg)

    def test_draws_stay_in_band(self):
        g = random_stable(5, 1, 1, seed=6)
        r = zero_like(g)
        cfg = SelectionStrategy.random(omega_min=0.5, omega_max=2.0, K=40, seed=0)
        for _ in range(3):
            w = select_random(g, r, cfg)
            assert 0.5 <= w <= 2.0

    def test_external_rng_continues_stream(self):
        g = random_stable(6, 2, 2, seed=7)
        r = random_stable(2, 2, 2, seed=8)
        cfg = SelectionStrategy.random(K=20, seed=5)
        rng = SplitMix64(5)
        first = select_random(g, r, cfg, rng)
        second = select_random(g, r, cfg, rng)
        # The stream advanced, so the second batch differs from the first.
        assert first == select_random(g, r, cfg)  # fresh rng replays batch 1
        assert second != first

    def test_wrong_kind_rejected(self):
        g = resonant_siso()
        with pytest.raises(ValueError, match="RANDOM"):
            select_random(g, zero_like(g), SelectionStrategy.max_error())


class TestRefine:
    def graded_model(self):
        # G(jw) = diag(1, 0.97, 0.5) / (jw + 1): singular values sit at
        # ratios 1 : 0.97 : 0.5, so rho = 0.95 keeps exactly two.
        return StateSpace(-np.eye(3), np.eye(3), np.diag([1.0, 0.97, 0.5]))

    def test_new_point_window(self):
        ref = refine(self.graded_model(), [], 0.0, mu=1e-3, rho=0.95)
        assert ref.omega == 0.0
        assert (ref.r_min, ref.r_max) == (1, 2)
        assert ref.merged_index is None

    def test_window_is_relative_to_first_taken(self):
        # rho = 0.5: from sigma_1 = 1 everything >= 0.5 is in, so all three.
        ref = refine(self.graded_model(), [], 0.0, mu=1e-3, rho=0.5)
        assert (ref.r_min, ref.r_max) == (1, 3)

    def test_merge_on_close_frequency(self):
        g = random_stable(6, 3, 3, seed=9)
        resp = freq_sweep(g, [1.0])[0]
        pts = [truncated_point(resp, 1, 1)]
        ref = refine(g, pts, 1.0005, mu=1e-3, rho=0.95)
        assert ref.merged_index == 0
        assert ref.omega == 1.0
        assert ref.r_min == 2

    def test_no_merge_outside_gap(self):
        g = random_stable(6, 3, 3, seed=10)
        pts = [truncated_point(freq_sweep(g, [1.0])[0], 1, 1)]
        ref = refine(g, pts, 1.05, mu=1e-2, rho=0.95)
        assert ref.merged_index is None
        assert ref.omega == 1.05
        assert ref.r_min == 1

    def test_merge_picks_nearest(self):
        g = random_stable(6, 3, 3, seed=11)
        pts = [
            truncated_point(freq_sweep(g, [1.0])[0], 1, 1),
            truncated_point(freq_sweep(g, [1.1])[0], 1, 1),
        ]
        ref = refine(g, pts, 1.004, mu=1e-2, rho=0.95)
        assert ref.merged_index == 0
        assert ref.omega == 1.0

    def test_zero_candidate_never_merges_into_nonzero(self):
        g = random_stable(6, 3, 3, seed=12)
        pts = [truncated_point(freq_sweep(g, [0.5])[0], 1, 1)]
        ref = refine(g, pts, 0.0, mu=100.0, rho=0.95)
        assert ref.merged_index is None
        assert ref.omega == 0.0

    def test_zero_merges_into_zero(self):
        g = random_stable(6, 3, 3, seed=13)
        pts = [truncated_point(freq_sweep(g, [0.0])[0], 1, 1)]
        ref = refine(g, pts, 0.0, mu=0.0, rho=0.95)
        assert ref.merged_index == 0
        assert ref.r_min == 2

    def test_rank_exhausted_on_siso_repeat(self):
        g = random_stable(4, 1, 1, seed=14)
        pts = [truncated_point(freq_sweep(g, [1.0])[0], 1, 1)]
        with pytest.raises(RankExhausted):
            refine(g, pts, 1.0, mu=1e-3, rho=0.95)

    def test_rank_exhausted_beyond_numerical_rank(self):
        # Rank-one response: second direction does not exist.
        g = StateSpace(-np.eye(2), np.ones((2, 2)), np.ones((2, 2)))
        pts = [truncated_point(freq_sweep(g, [1.0])[0], 1, 1)]
        with pytest.raises(RankExhausted, match="numerical rank"):
            refine(g, pts, 1.0, mu=1e-3, rho=0.95)

    def test_zero_response_rejected(self):
        g = StateSpace(-np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(RankExhausted, match="zero"):
            refine(g, [], 1.0, mu=1e-3, rho=0.95)

    def test_parameter_validation(self):
        g = resonant_siso()
        with pytest.raises(ValueError):
            refine(g, [], 1.0, mu=-0.1, rho=0.95)
        with pytest.raises(ValueError):
            refine(g, [], 1.0, mu=0.1, rho=0.0)
        with pytest.raises(ValueError):
            refine(g, [], 1.0, mu=0.1, rho=1.5)
        with pytest.raises(ValueError):
            refine(g, [], -1.0, mu=0.1, rho=0.95)

    def test_full_sampling_cycle_at_one_frequency(self):
        """Repeated merges walk through the response's directions and then
        stop with a clean error."""
        g = self.graded_model()
        data = InterpData.empty(g)
        taken = 0
        for _ in range(3):
            ref = refine(g, data.points, 0.0, mu=1e-3, rho=1e-6)
            resp = freq_sweep(g, [ref.omega])[0]
            pt = truncated_point(resp, ref.r_min, ref.r_max)
            if ref.merged_index is None:
                data = append_point(data, g, pt)
            else:
                data = extend_point(data, g, ref.merged_index, pt)
            taken += pt.rank
            if taken >= 3:
                break
        assert data.points[0].rank == 3
        with pytest.raises(RankExhausted):
            refine(g, data.points, 0.0, mu=1e-3, rho=0.95)
