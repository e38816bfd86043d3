"""The greedy loop end to end, plus the balanced-truncation baseline."""

import collections
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import tanmor.gramians
import tanmor.reduction
import tanmor.selection
from tanmor import (
    IllConditionedLyapunov,
    IndexOutOfRange,
    InvariantViolation,
    PeakSearchNotConverged,
    ReducerConfig,
    SelectionStrategy,
    StateSpace,
    UnstableSystem,
    balanced_truncation,
    error_norm,
    eval_tf,
    h2_norm_sq,
    hankel_values,
    reduce,
    refine,
    select_max_error,
    series_sub,
    solve_weights,
    sweep_orders,
)

from helpers import (
    decoupled_resonances,
    eigvals_sizes,
    h2_sq_quadrature,
    modal_stable,
    random_mixed,
    random_stable,
    resonance_peak,
    stacked_max_error,
    uncached_discrete,
)


def max_error_cfg(max_order, **kw):
    return ReducerConfig(SelectionStrategy.max_error(), max_order=max_order, **kw)


class TestConfigValidation:
    def test_strategy_type(self):
        with pytest.raises(TypeError):
            ReducerConfig("max-error", max_order=4)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_order": 0},
            {"max_order": 4, "mu": -1.0},
            {"max_order": 4, "rho": 0.0},
            {"max_order": 4, "rho": 1.5},
            {"max_order": 4, "gamma_rel_tol": 0.0},
            {"max_order": 4, "gamma_rel_tol": 1.0},
            {"max_order": 4, "error_rel_tol": 0.0},
            {"max_order": 4, "max_iters": 0},
        ],
    )
    def test_scalar_ranges(self, kw):
        with pytest.raises(ValueError):
            ReducerConfig(SelectionStrategy.max_error(), **kw)


@pytest.fixture(scope="module")
def swamped_run():
    # From order 8 on, the greedy models of this mixed-stability parent
    # have output maps of norm 1e6 up to 4e9, and the error trace computed
    # from their Gramians, which pass the residual checks, is rounding
    # noise: at order 13 it reads -5e5 or +5e6 depending on the BLAS thread
    # count, against ||g||^2 = 730.  A negative trace clipped to zero would
    # pass as an exact hit and stop the loop as converged-error.
    g = random_mixed(100, 40, 3, 3, seed=7, field="complex")
    strategy = SelectionStrategy.random(omega_min=1e-2, omega_max=1e2, K=100, seed=1)
    cfg = ReducerConfig(strategy, max_order=13, rho=0.999, error_rel_tol=1e-3)
    return g, reduce(g, cfg)


class TestReduce:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_small_systems(self, seed):
        # Modal parents keep the Hankel spectrum from collapsing within n
        # states; recovery of systems whose trailing Hankel values sit many
        # orders below sigma_1 is intrinsically ill-conditioned (the exact
        # weights grow like 1/sigma_min) and no realization can then hold
        # the error band below the evaluation noise floor.
        sys = modal_stable((2, 3, 4)[seed % 3], 2, 2, seed=seed)
        n = sys.n
        trace = reduce(sys, max_error_cfg(2 * n, max_iters=40, track_error=False))
        assert trace.stop_reason == "converged-gamma"
        assert trace.final_gamma <= 1e-8 * trace.gamma0
        err_sq = h2_sq_quadrature(series_sub(sys, trace.model), rtol=1e-8)
        assert math.sqrt(err_sq) <= 1e-6 * math.sqrt(trace.gamma0)

    def test_gamma_never_increases(self):
        sys = random_stable(12, 2, 2, seed=20)
        cfg = ReducerConfig(
            SelectionStrategy.random(K=30, seed=0),
            max_order=24,
            max_iters=12,
            track_error=False,
        )
        trace = reduce(sys, cfg)
        values = [trace.gamma0] + [row.gamma for row in trace.rows]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-10 * trace.gamma0

    def test_every_snapshot_interpolates(self):
        sys = random_stable(10, 3, 3, seed=21)
        trace = reduce(sys, max_error_cfg(12, max_iters=6, track_error=False))
        assert trace.rows
        for row in trace.rows:
            assert row.model.n == row.order
            for pt in row.data.points:
                lhs = pt.u.conj().T @ eval_tf(row.model, 1j * pt.omega)
                rhs = pt.u.conj().T @ eval_tf(sys, 1j * pt.omega)
                scale = 1.0 + float(np.linalg.norm(np.diag(pt.sigma), "fro"))
                assert np.linalg.norm(lhs - rhs, "fro") <= 1e-8 * scale

    def test_max_order_respected_with_odd_budget(self):
        # Real w > 0 blocks come in pairs of rows, so an odd budget can
        # never be filled exactly; the loop must stop short, not overshoot.
        sys = random_stable(8, 3, 3, seed=22)
        trace = reduce(sys, max_error_cfg(5, max_iters=30, track_error=False))
        assert trace.stop_reason == "max-order"
        assert all(row.order <= 5 for row in trace.rows)
        assert trace.model.n <= 5

    def test_max_iters_stop(self):
        sys = random_stable(20, 2, 2, seed=23)
        trace = reduce(sys, max_error_cfg(40, max_iters=2, track_error=False))
        assert trace.stop_reason == "max-iters"
        assert len(trace.rows) == 2

    def test_error_tolerance_stop(self):
        sys = random_stable(6, 2, 2, seed=24)
        cfg = ReducerConfig(
            SelectionStrategy.max_error(),
            max_order=12,
            max_iters=30,
            gamma_rel_tol=1e-300,
            error_rel_tol=1e-3,
        )
        trace = reduce(sys, cfg)
        assert trace.stop_reason == "converged-error"
        measured = [r.error_norm for r in trace.rows if not math.isnan(r.error_norm)]
        assert measured[-1] <= 1e-3 * math.sqrt(trace.gamma0)

    def test_halts_cleanly_when_rank_runs_out(self):
        # SISO responses are rank one; a huge merge tolerance folds every
        # proposal into the first sample, which exhausts after one take.
        sys = random_stable(4, 1, 1, seed=25)
        cfg = ReducerConfig(
            SelectionStrategy.max_error(),
            max_order=8,
            mu=1e9,
            gamma_rel_tol=1e-300,
            max_iters=10,
            track_error=False,
        )
        trace = reduce(sys, cfg)
        assert trace.stop_reason.startswith("halted[RankExhausted]")
        assert trace.rows  # the completed iterations survive

    @pytest.mark.parametrize("failing_call", [2, 3])
    def test_lapack_failure_halts_with_trace(self, monkeypatch, failing_call):
        # Call 1 is the baseline solve before the loop; call k >= 2 runs in
        # iteration k - 1, so the rows of the iterations before it survive.
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call:
                raise np.linalg.LinAlgError("SVD did not converge")
            return solve_weights(*args, **kwargs)

        monkeypatch.setattr(tanmor.reduction, "solve_weights", flaky)
        sys = random_stable(6, 2, 2, seed=26)
        trace = reduce(sys, max_error_cfg(6, max_iters=4))
        assert trace.stop_reason == "halted[LinAlgError]: SVD did not converge"
        assert len(trace.rows) == failing_call - 2
        assert trace.model.n == (trace.rows[-1].order if trace.rows else 0)

    def test_lapack_failure_in_error_norm_records_nan(self, monkeypatch):
        def failing(g, r):
            raise np.linalg.LinAlgError("Schur form not found")

        monkeypatch.setattr(tanmor.reduction, "error_norm", failing)
        sys = random_stable(6, 2, 2, seed=26)
        trace = reduce(sys, max_error_cfg(4, max_iters=2))
        assert len(trace.rows) == 2
        assert all(math.isnan(row.error_norm) for row in trace.rows)

    def test_non_finite_error_gramian_records_nan(self, monkeypatch):
        # A NaN block in one row's error Gramian is rejected by the rounding
        # guard; that row records NaN and the run goes on.
        sys = random_stable(6, 2, 2, seed=26)
        split_gramian = tanmor.gramians._split_gramian
        reduced = []

        def poisoned(split, bbh, tol):
            theta, defect = split_gramian(split, bbh, tol)
            if split.Q.shape[0] < sys.n:
                reduced.append(None)
                if len(reduced) == 2:
                    theta = np.full_like(theta, np.nan)
            return theta, defect

        monkeypatch.setattr(tanmor.gramians, "_split_gramian", poisoned)
        trace = reduce(sys, max_error_cfg(6, max_iters=3))
        assert len(trace.rows) == len(reduced) == 3
        assert [math.isnan(row.error_norm) for row in trace.rows] == [False, True, False]
        assert trace.stop_reason == "max-iters"

    def test_rounding_swamped_error_records_nan(self, swamped_run):
        g, trace = swamped_run
        assert trace.stop_reason == "max-order"
        assert trace.model.n == 13
        assert math.isnan(trace.rows[-1].error_norm)
        assert all(not row.error_norm < 1e-3 * math.sqrt(trace.gamma0) for row in trace.rows)
        with pytest.raises(IllConditionedLyapunov):
            error_norm(g, trace.model)

    def test_rounding_swamped_h2_norm_raises(self, swamped_run):
        # The same error system through h2_norm_sq, which used to clip the
        # noise-dominated trace to 0.0 instead of rejecting it.
        g, trace = swamped_run
        with pytest.raises(IllConditionedLyapunov):
            h2_norm_sq(series_sub(g, trace.model))

    def test_max_error_matches_stacked_search(self, monkeypatch):
        # The selector with the parent's responses cached against the old
        # dense solves on the stacked error system, over a whole run.
        sys = random_stable(40, 3, 3, seed=42)
        cfg = max_error_cfg(12, rho=0.999, gamma_rel_tol=1e-300)
        new = reduce(sys, cfg)
        monkeypatch.setattr(tanmor.reduction, "select_max_error", stacked_max_error)
        old = reduce(sys, cfg)
        assert new.stop_reason == old.stop_reason == "max-order"
        assert [row.order for row in new.rows] == [row.order for row in old.rows]
        npt.assert_allclose(
            [row.omega for row in new.rows], [row.omega for row in old.rows], rtol=1e-12
        )
        npt.assert_allclose(
            [row.gamma for row in new.rows], [row.gamma for row in old.rows], rtol=1e-12
        )

    def test_max_error_runs_one_hamiltonian_per_iteration(self, monkeypatch):
        # The local stage hands each Hamiltonian round a local maximum, so
        # the first round at (1 + rtol) times its gain certifies it: one
        # 2(n + r) x 2(n + r) eigvals per iteration, r the order before it.
        sys = random_stable(40, 3, 3, seed=42)
        sizes = eigvals_sizes(monkeypatch)
        trace = reduce(sys, max_error_cfg(12, rho=0.999, gamma_rel_tol=1e-300))
        assert trace.stop_reason == "max-order"
        before = [0] + [row.order for row in trace.rows[:-1]]
        assert [size for size in sizes if size >= 2 * sys.n] == [
            2 * (sys.n + order) for order in before
        ]

    def test_max_error_cache_releases_parent(self):
        # The per-parent context (Gramian and its factor, responses, Schur
        # split) and the response evaluator (eigendecomposition or Schur
        # factors, poles) must not keep the parent alive after the caller
        # drops it.
        sys = random_stable(20, 2, 2, seed=43)
        ref = weakref.ref(sys)
        trace = reduce(sys, max_error_cfg(6, track_error=True))
        assert trace.rows and all(np.isfinite(row.error_norm) for row in trace.rows)
        sweep_orders(sys, trace, [2, 4])
        del sys
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize(
        "parent",
        [
            lambda: random_stable(40, 3, 3, seed=44),
            lambda: random_mixed(30, 10, 2, 2, seed=45, field="complex"),
        ],
        ids=["real", "complex-mixed"],
    )
    def test_discrete_matches_uncached_grid(self, monkeypatch, parent):
        # The grid selector reading the parent's memoized responses against
        # one that re-evaluates the parent in every call: same bits.
        sys = parent()
        cfg = ReducerConfig(
            SelectionStrategy.discrete(K=80), max_order=12, rho=0.999, gamma_rel_tol=1e-300
        )
        new = reduce(sys, cfg)
        monkeypatch.setattr(tanmor.reduction, "select_discrete", uncached_discrete)
        old = reduce(sys, cfg)
        assert new.stop_reason == old.stop_reason
        assert len(new.rows) == len(old.rows) >= 5
        for field in ("omega", "gamma", "error_norm"):
            got = np.array([getattr(row, field) for row in new.rows])
            want = np.array([getattr(row, field) for row in old.rows])
            assert got.tobytes() == want.tobytes(), field

    def test_discrete_evaluates_parent_once_per_grid_point(self, monkeypatch):
        sys = random_stable(30, 2, 2, seed=46)
        seen = collections.Counter()

        def counting_responses(s, omegas):
            omegas = [float(w) for w in omegas]
            if s is sys:
                seen.update(omegas)
            return responses(s, omegas)

        responses = tanmor.selection._responses
        monkeypatch.setattr(tanmor.selection, "_responses", counting_responses)
        strategy = SelectionStrategy.discrete(K=50)
        trace = reduce(sys, ReducerConfig(strategy, max_order=10, rho=0.999))
        assert len(trace.rows) >= 4
        assert set(seen) == set(strategy.grid)
        assert max(seen.values()) == 1

    def test_discrete_cache_releases_parent(self):
        # Tracked discrete and random runs on a mixed parent, whose Gramian
        # leaves its Schur split in the context.
        for strategy in (
            SelectionStrategy.discrete(K=40),
            SelectionStrategy.random(K=40, seed=3),
        ):
            sys = random_mixed(16, 4, 2, 2, seed=43)
            ref = weakref.ref(sys)
            trace = reduce(sys, ReducerConfig(strategy, max_order=6, track_error=True))
            assert trace.rows and all(np.isfinite(row.error_norm) for row in trace.rows)
            del sys
            gc.collect()
            assert ref() is None

    @pytest.mark.parametrize(
        "make_parent",
        [
            lambda: random_stable(40, 2, 2, seed=45),
            lambda: random_mixed(30, 10, 2, 2, seed=45, field="complex"),
        ],
        ids=["stable-real", "mixed-complex"],
    )
    def test_tracked_run_solves_parent_gramian_and_schur_once(self, monkeypatch, make_parent):
        # The Gramian and every error norm share the parent's ordered Schur
        # split, whatever the parent's stability: no Lyapunov solver runs a
        # Schur form of its own.
        sys = make_parent()
        gramian_orders, schur_orders, lyapunov_orders = [], [], []
        gramian, schur = tanmor.gramians.controllability_gramian, scipy.linalg.schur
        lyapunov = scipy.linalg.solve_continuous_lyapunov

        def counting_gramian(s):
            gramian_orders.append(s.n)
            return gramian(s)

        def counting_schur(a, *args, **kwargs):
            schur_orders.append(a.shape[0])
            return schur(a, *args, **kwargs)

        def counting_lyapunov(a, q):
            lyapunov_orders.append(a.shape[0])
            return lyapunov(a, q)

        for owner in (tanmor.gramians, tanmor.reduction):
            monkeypatch.setattr(owner, "controllability_gramian", counting_gramian)
        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        monkeypatch.setattr(scipy.linalg._solvers, "schur", counting_schur)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counting_lyapunov)
        cfg = ReducerConfig(
            SelectionStrategy.discrete(K=80), max_order=12, rho=0.999, gamma_rel_tol=1e-300
        )
        trace = reduce(sys, cfg)
        assert len(trace.rows) >= 5
        assert all(np.isfinite(row.error_norm) for row in trace.rows)
        assert gramian_orders == [sys.n]
        assert schur_orders.count(sys.n) == 1
        assert lyapunov_orders == []

    def test_tracked_run_factors_parent_spectrum_once(self, monkeypatch):
        # The response evaluator's eigendecomposition also supplies the
        # poles of the parent (Gramian imaginary-axis check, max-error
        # candidates): no separate eigvals of the parent in a run.  It is
        # taken from the parent's Schur form, so the one parent-sized eig
        # sees the triangular factor, never A.
        sys = random_mixed(30, 10, 2, 2, seed=45, field="complex")
        eig_orders, eigvals_orders, parent_eig_inputs = [], [], []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals

        def counting_eig(a):
            eig_orders.append(a.shape[0])
            if a.shape[0] == sys.n:
                parent_eig_inputs.append(a)
            return eig(a)

        def counting_eigvals(a):
            eigvals_orders.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        trace = reduce(sys, max_error_cfg(8, rho=0.999, gamma_rel_tol=1e-300))
        assert len(trace.rows) >= 4
        assert eig_orders.count(sys.n) == 1
        assert sys.n not in eigvals_orders
        (T,) = parent_eig_inputs
        assert T is not sys.A and np.all(np.tril(T, -1) == 0)

    @pytest.mark.parametrize(
        "make_parent",
        [
            lambda: random_stable(40, 2, 2, seed=45),
            lambda: random_mixed(30, 10, 2, 2, seed=45, field="complex"),
        ],
        ids=["stable-real", "mixed-complex"],
    )
    def test_tracked_run_schur_factors_each_model_once(self, monkeypatch, make_parent):
        # error_norm keeps the Schur form of each model, and the next
        # selection step builds the model's evaluator from it: no eig of A.
        sys = make_parent()
        seen, eig_inputs = [], []
        schur, eig = scipy.linalg.schur, np.linalg.eig

        def recording(a, *args, **kwargs):
            seen.append(a)
            return schur(a, *args, **kwargs)

        def recording_eig(a):
            eig_inputs.append(a)
            return eig(a)

        monkeypatch.setattr(scipy.linalg, "schur", recording)
        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        cfg = ReducerConfig(
            SelectionStrategy.discrete(K=80), max_order=12, rho=0.999, gamma_rel_tol=1e-300
        )
        trace = reduce(sys, cfg)
        assert len(trace.rows) >= 5
        assert all(np.isfinite(row.error_norm) for row in trace.rows)
        assert [sum(a is row.model.A for a in seen) for row in trace.rows] == [1] * len(
            trace.rows
        )
        assert sum(a is sys.A for a in seen) == 1
        models = [sys.A] + [row.model.A for row in trace.rows]
        assert not any(a is m for a in eig_inputs for m in models)

    def test_tracked_run_computes_each_model_spectrum_once(self, monkeypatch):
        # The stability flag, error_norm's imaginary-axis check and the
        # next max-error search all read one eigvals of each reduced model.
        sys = random_mixed(30, 10, 2, 2, seed=45, field="complex")
        seen = []
        eigvals = np.linalg.eigvals

        def recording(a):
            seen.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        trace = reduce(sys, max_error_cfg(8, rho=0.999, gamma_rel_tol=1e-300))
        assert len(trace.rows) >= 4
        assert all(np.isfinite(row.error_norm) for row in trace.rows)
        assert [sum(a is row.model.A for a in seen) for row in trace.rows] == [1] * len(
            trace.rows
        )

    def test_parent_evaluated_once_per_iteration(self, monkeypatch):
        # Every parent response of a run comes from the selection module's
        # binding of the cached evaluator, and no frequency is evaluated
        # twice: refine reads the value that selection left in the memo.
        responses = tanmor.selection._responses

        def counting_responses(s, omegas):
            omegas = [float(w) for w in omegas]
            if s is sys:
                seen.update(omegas)
            return responses(s, omegas)

        def reduce_evaluates(*args, **kwargs):
            raise AssertionError("reduce evaluated a response itself")

        def counting_refine(*args, **kwargs):
            ref = refine(*args, **kwargs)
            refined.append(ref.omega)
            return ref

        monkeypatch.setattr(tanmor.selection, "_responses", counting_responses)
        # reduce takes the response from refine; a binding of an evaluator
        # in the reduction module, should one come back, fails the test.
        for name in ("eval_tf", "_responses"):
            monkeypatch.setattr(tanmor.reduction, name, reduce_evaluates, raising=False)
        monkeypatch.setattr(tanmor.reduction, "refine", counting_refine)
        for strategy in (
            SelectionStrategy.discrete(K=50),
            SelectionStrategy.random(K=50, seed=5),
            SelectionStrategy.max_error(),
        ):
            sys = random_stable(30, 2, 2, seed=46)
            seen, refined = collections.Counter(), []
            trace = reduce(sys, ReducerConfig(strategy, max_order=10))
            assert len(trace.rows) >= 4
            assert max(seen.values()) == 1, strategy.kind
            assert set(refined) <= set(seen), strategy.kind

    def test_unconverged_peak_search_halts_with_trace(self, monkeypatch):
        # Three decoupled resonances: the first iteration takes the highest,
        # at w = 1.  The second search then meets a sharp peak at w = 2 and
        # a broad one 0.5% higher, whose pole candidates score about 1%
        # below the sharp one, so it needs more than one Hamiltonian round.
        sharp = resonance_peak(2.0, 5e-3)
        sys = decoupled_resonances(
            (1.0, 5e-3, 3.0 * sharp / resonance_peak(1.0, 5e-3)),
            (2.0, 5e-3, 1.0),
            (5.0, 0.3, 1.005 * sharp / resonance_peak(5.0, 0.3)),
        )
        sizes, rounds = eigvals_sizes(monkeypatch), []

        def counting(g, r, rtol=1e-6):
            sizes.clear()
            w = select_max_error(g, r, rtol)
            rounds.append(sizes.count(2 * (g.n + r.n)))
            return w

        monkeypatch.setattr(tanmor.reduction, "select_max_error", counting)
        reduce(sys, max_error_cfg(6))
        assert rounds[1] >= 2

        calls = []

        def capped_from_second_call(g, r, rtol=1e-6):
            calls.append(1)
            if len(calls) == 2:
                monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", 1)
            return select_max_error(g, r, rtol)

        monkeypatch.setattr(tanmor.reduction, "select_max_error", capped_from_second_call)
        trace = reduce(sys, max_error_cfg(6))
        assert trace.stop_reason.startswith("halted[PeakSearchNotConverged]: ")
        assert len(trace.rows) == 1
        assert trace.model.n == trace.rows[0].order

    def test_track_error_off_records_nan(self):
        sys = random_stable(6, 2, 2, seed=26)
        trace = reduce(sys, max_error_cfg(4, max_iters=2, track_error=False))
        assert all(math.isnan(row.error_norm) for row in trace.rows)

    def test_track_error_on_records_values(self):
        sys = random_stable(6, 2, 2, seed=26)
        trace = reduce(sys, max_error_cfg(4, max_iters=2))
        assert all(row.error_norm >= 0.0 for row in trace.rows)

    def test_zero_output_stops_before_first_iteration(self):
        sys = StateSpace(-np.eye(3), np.eye(3)[:, :2], np.zeros((2, 3)))
        trace = reduce(sys, max_error_cfg(4))
        assert trace.stop_reason == "converged-gamma"
        assert trace.rows == ()
        assert trace.gamma0 == 0.0
        assert trace.final_gamma == 0.0
        assert trace.model.n == 0

    def test_imaginary_axis_parent_rejected(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        with pytest.raises(InvariantViolation):
            reduce(osc, max_error_cfg(2))

    def test_complex_parent(self):
        sys = random_stable(6, 2, 2, seed=27, field="complex")
        trace = reduce(sys, max_error_cfg(6, max_iters=20, track_error=False))
        assert trace.final_gamma <= 1e-8 * trace.gamma0

    def test_row_at_order(self):
        sys = random_stable(10, 2, 2, seed=28)
        trace = reduce(sys, max_error_cfg(8, max_iters=10, track_error=False))
        orders = [row.order for row in trace.rows]
        assert trace.row_at_order(0) is None
        probe = orders[0]
        row = trace.row_at_order(probe)
        assert row.order == max(o for o in orders if o <= probe)
        assert trace.row_at_order(10 ** 6).order == orders[-1]


class TestBalancedTruncation:
    def test_full_order_reproduces(self):
        sys = random_stable(6, 2, 2, seed=30, feedthrough=True)
        bt = balanced_truncation(sys, 6)
        err = h2_norm_sq(series_sub(sys, StateSpace(bt.A, bt.B, bt.C, bt.D)))
        assert err <= 1e-10 * h2_norm_sq(series_sub(sys, StateSpace.constant(sys.D)))

    def test_errors_shrink_with_order(self):
        sys = modal_stable(4, 2, 2, seed=31)
        errs = []
        for k in (1, 2, 4, 6):
            bt = balanced_truncation(sys, k)
            errs.append(math.sqrt(h2_norm_sq(series_sub(sys, bt))))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1 + 1e-10)

    def test_hankel_values_against_eigenvalues(self):
        import scipy.linalg as sla

        sys = random_stable(7, 2, 2, seed=32)
        got = hankel_values(sys)
        P = sla.solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.T)
        Q = sla.solve_continuous_lyapunov(sys.A.T, -sys.C.T @ sys.C)
        want = np.sort(np.sqrt(np.abs(np.linalg.eigvals(P @ Q))))[::-1]
        npt.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
        assert np.all(np.diff(got) <= 0)

    def test_unstable_rejected(self):
        sys = StateSpace([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstableSystem):
            balanced_truncation(sys, 1)
        with pytest.raises(UnstableSystem):
            hankel_values(sys)

    def test_order_bounds(self):
        sys = random_stable(4, 1, 1, seed=33)
        with pytest.raises(IndexOutOfRange):
            balanced_truncation(sys, -1)
        with pytest.raises(IndexOutOfRange):
            balanced_truncation(sys, 5)

    def test_order_zero_keeps_feedthrough(self):
        sys = random_stable(4, 2, 2, seed=34, feedthrough=True)
        bt = balanced_truncation(sys, 0)
        assert bt.n == 0
        npt.assert_array_equal(bt.D, sys.D)

    def test_nonminimal_clamps_to_hankel_rank(self):
        # Two identical copies of one mode: minimal order is 1.
        sys = StateSpace(
            np.diag([-1.0, -1.0]), [[1.0], [1.0]], [[1.0, 1.0]]
        )
        bt = balanced_truncation(sys, 2)
        assert bt.n == 1
        npt.assert_allclose(
            eval_tf(bt, 0.3j), eval_tf(sys, 0.3j), rtol=1e-10
        )

    def test_complex_field_preserved(self):
        sys = random_stable(5, 2, 2, seed=35, field="complex")
        bt = balanced_truncation(sys, 2)
        assert bt.scalar_field == "complex"

    def test_order_zero_system(self):
        sys = StateSpace.constant(np.ones((2, 2)))
        assert hankel_values(sys).shape == (0,)
        assert balanced_truncation(sys, 0).n == 0


def sweep_trace(sys, cfg, orders):
    """The greedy run a sweep over ``orders`` reads its rows from."""
    return reduce(sys, replace(cfg, max_order=max(max(orders), 1), track_error=True))


class TestSweepOrders:
    def test_table_structure(self):
        sys = modal_stable(4, 2, 2, seed=36)
        cfg = max_error_cfg(6, max_iters=20, track_error=False)
        table = sweep_orders(sys, sweep_trace(sys, cfg, [2, 4, 6]), [2, 4, 6])
        assert [pt.order for pt in table] == [2, 4, 6]
        for pt in table:
            assert 0 <= pt.achieved_order <= pt.order
            assert pt.error >= 0.0
            assert pt.baseline_error >= 0.0

    def test_zero_order_falls_back_to_baseline_energy(self):
        sys = random_stable(6, 2, 2, seed=37)
        cfg = max_error_cfg(4, max_iters=10)
        table = sweep_orders(sys, sweep_trace(sys, cfg, [0]), [0], baseline="none")
        pt = table[0]
        assert pt.achieved_order == 0
        assert math.isnan(pt.baseline_error)
        npt.assert_allclose(pt.error, math.sqrt(h2_norm_sq(sys)), rtol=1e-7)

    def test_bad_arguments(self):
        sys = random_stable(4, 1, 1, seed=38)
        trace = sweep_trace(sys, max_error_cfg(4), [2])
        with pytest.raises(ValueError):
            sweep_orders(sys, trace, [-1])
        with pytest.raises(ValueError):
            sweep_orders(sys, trace, [2], baseline="pade")
        assert sweep_orders(sys, trace, []) == []

    def test_reads_rows_of_the_given_trace(self):
        sys = modal_stable(4, 2, 2, seed=36)
        trace = reduce(sys, max_error_cfg(4, max_iters=20))
        final = trace.rows[-1]
        table = sweep_orders(sys, trace, [trace.rows[0].order, 8], baseline="none")
        assert table[0].achieved_order == trace.rows[0].order
        assert table[0].error == trace.rows[0].error_norm
        # An order above the run's budget reports the final model.
        assert (table[1].achieved_order, table[1].error) == (
            final.order,
            final.error_norm,
        )

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_baseline_matches_balanced_truncation(self, field):
        sys = random_stable(8, 2, 2, seed=39, field=field, feedthrough=True)
        orders = [0, 2, 5, 8, 12]
        table = sweep_orders(sys, sweep_trace(sys, max_error_cfg(8), orders), orders)
        for pt in table:
            bt = balanced_truncation(sys, min(pt.order, sys.n))
            assert pt.baseline_error == error_norm(sys, bt).value

    def test_balanced_baseline_rejects_unstable_parent(self):
        sys = random_mixed(4, 2, 2, 2, seed=40)
        trace = sweep_trace(sys, max_error_cfg(4, max_iters=3), [2])
        with pytest.raises(UnstableSystem):
            sweep_orders(sys, trace, [2])
        assert len(sweep_orders(sys, trace, [2], baseline="none")) == 1
