"""The greedy loop end to end, plus the balanced-truncation baseline."""

import collections
import gc
import math
import os
import threading
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import helpers
import tanmor._lapack
import tanmor.gramians
import tanmor.reduction
import tanmor.selection
from tanmor.selection import _max_error_search
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
    series_sub,
    sweep_orders,
)
from tanmor.selection import refine
from tanmor.weights import solve_weights

from benchmarks import flex_structure_model
from helpers import (
    decoupled_resonances,
    eigvals_sizes,
    h2_sq_quadrature,
    modal_stable,
    random_mixed,
    random_stable,
    resonance_peak,
    sequential_reduce,
    stacked_max_error,
    uncached_discrete,
)


def max_error_cfg(max_order, **kw):
    return ReducerConfig(SelectionStrategy.max_error(), max_order=max_order, **kw)


def three_resonances():
    # Three decoupled resonances: the first iteration takes the highest,
    # at w = 1.  The second search then meets a sharp peak at w = 2 and
    # a broad one 0.5% higher, whose pole candidates score about 1%
    # below the sharp one, so it needs more than one Hamiltonian round.
    sharp = resonance_peak(2.0, 5e-3)
    return decoupled_resonances(
        (1.0, 5e-3, 3.0 * sharp / resonance_peak(1.0, 5e-3)),
        (2.0, 5e-3, 1.0),
        (5.0, 0.3, 1.005 * sharp / resonance_peak(5.0, 0.3)),
    )


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

    def test_rounding_swamped_rows_stay_nan(self, swamped_run):
        # Every row from order 8 on is refused.  At order 8 the r x r Schur
        # complement has no negative eigenvalue; only the rounding allowance
        # for the model's output map (about 400 times the threshold) refuses
        # the row.
        _, trace = swamped_run
        assert [row.order for row in trace.rows if math.isnan(row.error_norm)] == list(
            range(8, 14)
        )

    def test_rounding_swamped_h2_norm_raises(self, swamped_run):
        # The same error system through h2_norm_sq, which used to clip the
        # noise-dominated trace to 0.0 instead of rejecting it.
        g, trace = swamped_run
        with pytest.raises(IllConditionedLyapunov):
            h2_norm_sq(series_sub(g, trace.model))

    def test_max_error_matches_stacked_search(self, monkeypatch):
        # The selector with the parent's responses cached against the old
        # dense solves on the stacked error system, over a whole run.  The
        # substitute yields no Hamiltonian, so its run selects on this thread.
        sys = random_stable(40, 3, 3, seed=42)
        cfg = max_error_cfg(12, rho=0.999, gamma_rel_tol=1e-300)
        new = reduce(sys, cfg)
        searched = []

        def stacked_search(g, r, rtol=1e-6):
            searched.append(r.n)
            return stacked_max_error(g, r, rtol)
            yield  # a generator, as the search it stands in for

        monkeypatch.setattr(tanmor.reduction, "_max_error_search", stacked_search)
        old = reduce(sys, cfg)
        assert searched[: len(old.rows)] == [0] + [row.order for row in old.rows[:-1]]
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
        # 2(n + r) x 2(n + r) eigensolve per iteration, r the order before it.
        # The solves run on two threads, so they are compared in order of
        # size, which rises strictly with the iteration.
        sys = random_stable(40, 3, 3, seed=42)
        sizes = eigvals_sizes(monkeypatch)
        trace = reduce(sys, max_error_cfg(12, rho=0.999, gamma_rel_tol=1e-300))
        assert trace.stop_reason == "max-order"
        before = [0] + [row.order for row in trace.rows[:-1]]
        assert sorted(size for size in sizes if size >= 2 * sys.n) == [
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

        monkeypatch.setattr(tanmor.gramians, "controllability_gramian", counting_gramian)
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
        # The poles of the parent (Gramian imaginary-axis check, max-error
        # candidates) are read off its kept Schur form: no eigvals of the
        # parent in a run.  The response evaluator takes its
        # eigendecomposition from that form too, by a triangular eigenvector
        # solve, so no general eigensolve runs on A or on its Schur factor.
        sys = random_mixed(30, 10, 2, 2, seed=45, field="complex")
        eig_orders, eigvals_orders = [], []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals

        def counting_eig(a):
            eig_orders.append(a.shape[0])
            return eig(a)

        def counting_eigvals(a):
            eigvals_orders.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        trace = reduce(sys, max_error_cfg(8, rho=0.999, gamma_rel_tol=1e-300))
        assert len(trace.rows) >= 4
        assert eig_orders == []
        assert sys.n not in eigvals_orders

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
        # The stability flag keeps each reduced model's ordered Schur form.
        # error_norm's split and imaginary-axis check, and the next max-error
        # search (the model's pole candidates and its evaluator) read that
        # form: one Schur form per model and no eigvals or eig of its A.
        sys = random_mixed(30, 10, 2, 2, seed=45, field="complex")
        schur_inputs, eig_inputs = [], []
        schur, eig, eigvals = scipy.linalg.schur, np.linalg.eig, np.linalg.eigvals

        def recording_schur(a, *args, **kwargs):
            schur_inputs.append(a)
            return schur(a, *args, **kwargs)

        def recording_eig(a):
            eig_inputs.append(a)
            return eig(a)

        def recording_eigvals(a):
            eig_inputs.append(a)
            return eigvals(a)

        monkeypatch.setattr(scipy.linalg, "schur", recording_schur)
        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        trace = reduce(sys, max_error_cfg(8, rho=0.999, gamma_rel_tol=1e-300))
        assert len(trace.rows) >= 4
        assert all(np.isfinite(row.error_norm) for row in trace.rows)
        models = [row.model for row in trace.rows]
        assert [sum(a is m.A for a in schur_inputs) for m in models] == [1] * len(models)
        assert not any(a is m.A for a in eig_inputs for m in models)
        assert all(m in tanmor.lti._SCHUR_FORMS for m in models)

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
        sys = three_resonances()
        rounds = []

        def counting(g, r, rtol=1e-6):
            # Each search's Hamiltonian rounds; the search of iteration 2 is
            # the second made, while iteration 1 is being certified.
            rounds.append(0)
            search, i, eigs = _max_error_search(g, r, rtol), len(rounds) - 1, None
            while True:
                try:
                    request = search.send(eigs)
                except StopIteration as done:
                    return done.value
                rounds[i] += 1
                eigs = yield request

        monkeypatch.setattr(tanmor.reduction, "_max_error_search", counting)
        reduce(sys, max_error_cfg(6))
        assert rounds[0] == 1
        assert rounds[1] >= 2

        searches = []

        def capped_from_second_search(g, r, rtol=1e-6):
            searches.append(r.n)
            if len(searches) == 2:
                monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", 1)
            return (yield from _max_error_search(g, r, rtol))

        monkeypatch.setattr(tanmor.reduction, "_max_error_search", capped_from_second_search)
        trace = reduce(sys, max_error_cfg(6))
        assert len(searches) >= 2
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


def copied(sys):
    """The same system as a new object, with no per-parent state of its own yet."""
    return StateSpace(
        sys.A.copy(), sys.B.copy(), sys.C.copy(), sys.D.copy(), scalar_field=sys.scalar_field
    )


def hex_rows(trace):
    """Every row's values, floats as float.hex, and the stop reason."""
    rows = [
        (
            row.iteration, row.omega.hex(), row.r_min, row.r_max, row.order,
            row.gamma.hex(), row.error_norm.hex(), row.stable,
        )
        for row in trace.rows
    ]
    return rows, trace.stop_reason


def library_entry_points(run):
    """Call ``run()``; return its result and the first tanmor, NumPy or SciPy
    function that each call chain entered on a thread started meanwhile."""
    roots = tuple(os.path.dirname(m.__file__) for m in (tanmor.reduction, np, scipy))
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(roots):
            caller = frame.f_back
            if caller is None or not caller.f_code.co_filename.startswith(roots):
                entered.append((frame.f_code.co_name, frame.f_code.co_filename))

    threading.setprofile(profile)
    try:
        return run(), entered
    finally:
        threading.setprofile(None)


class TestCertifiedPipeline:
    """reduce certifies each max-error pick on a worker thread while it goes
    on with the provisional frequency; its trace must be the sequential one."""

    def check_against_sequential(self, sys, cfg):
        threads = threading.active_count()
        expected = hex_rows(sequential_reduce(copied(sys), cfg))
        parent = copied(sys)
        ref = weakref.ref(parent)
        trace, entered = library_entry_points(lambda: reduce(parent, cfg))
        assert hex_rows(trace) == expected
        assert threading.active_count() == threads
        # Only the Hamiltonian eigensolve (the in-place LAPACK kernel) runs
        # off this thread, and it does run there.
        assert all(file == tanmor._lapack.__file__ for _, file in entered)
        assert {name for name, _ in entered} <= {"eigvals_overwrite"}
        assert "eigvals_overwrite" in {name for name, _ in entered}
        del parent
        gc.collect()
        assert ref() is None
        return trace

    def test_flex_to_order_12(self):
        cfg = ReducerConfig(
            SelectionStrategy.max_error(), max_order=12, rho=0.999, gamma_rel_tol=1e-300
        )
        trace = self.check_against_sequential(flex_structure_model(), cfg)
        assert trace.stop_reason == "max-order"
        assert all(np.isfinite(row.error_norm) for row in trace.rows)

    def test_complex_mixed_parent(self):
        sys = random_mixed(30, 10, 2, 2, seed=45, field="complex")
        trace = self.check_against_sequential(sys, max_error_cfg(8, rho=0.999))
        assert len(trace.rows) >= 4

    def test_moved_certificate_throws_speculation_away(self, monkeypatch):
        # Iteration 2's first certificate moves its frequency, so the work
        # done with the provisional one is thrown away: the pipelined run
        # solves more Hamiltonians than the sequential one.
        sys = three_resonances()
        sizes = eigvals_sizes(monkeypatch)
        sequential_reduce(copied(sys), max_error_cfg(6))
        sequential = len(sizes)
        # check_against_sequential runs the sequential loop once more first.
        trace = self.check_against_sequential(sys, max_error_cfg(6))
        pipelined = len(sizes) - 2 * sequential
        assert pipelined > sequential
        assert len(trace.rows) >= 2

    def test_round_cap_from_iteration_2_halts_with_one_row(self, monkeypatch):
        sys = three_resonances()
        searches, max_rounds = [], tanmor.gramians.PEAK_SEARCH_MAX_ROUNDS

        def capped_from_second_search(g, r, rtol=1e-6):
            searches.append(r.n)
            if len(searches) == 2:
                monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", 1)
            return (yield from _max_error_search(g, r, rtol))

        monkeypatch.setattr(tanmor.reduction, "_max_error_search", capped_from_second_search)
        threads = threading.active_count()
        trace = reduce(copied(sys), max_error_cfg(6))
        assert threading.active_count() == threads
        assert len(searches) >= 2
        assert len(trace.rows) == 1
        assert trace.stop_reason.startswith("halted[PeakSearchNotConverged]: ")

        searches.clear()
        monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", max_rounds)
        select = tanmor.selection.select_max_error

        def capped_from_second_call(g, r, rtol=1e-6):
            searches.append(r.n)
            if len(searches) == 2:
                monkeypatch.setattr(tanmor.gramians, "PEAK_SEARCH_MAX_ROUNDS", 1)
            return select(g, r, rtol)

        monkeypatch.setattr(helpers, "select_max_error", capped_from_second_call)
        assert hex_rows(sequential_reduce(copied(sys), max_error_cfg(6))) == hex_rows(trace)

    @pytest.mark.parametrize("failing_row", [1, 2], ids=["main-thread-solve", "worker-solve"])
    def test_failed_eigensolve_keeps_rows_before_it(self, monkeypatch, failing_row):
        # Iteration 2's Hamiltonian is first solved on this thread, while
        # iteration 1 is certified; iteration 3's is solved by the worker.
        sys = random_stable(40, 3, 3, seed=42)
        cfg = max_error_cfg(12, rho=0.999, gamma_rel_tol=1e-300)
        size = 2 * (sys.n + reduce(copied(sys), cfg).rows[failing_row - 1].order)
        eigvals = tanmor._lapack.eigvals_overwrite

        def failing(a):
            if a.shape[0] == size:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(tanmor._lapack, "eigvals_overwrite", failing)
        trace = self.check_against_sequential(sys, cfg)
        assert len(trace.rows) == failing_row
        assert trace.stop_reason == "halted[LinAlgError]: eigenvalues did not converge"

    @pytest.mark.parametrize("failing_row", [1, 2], ids=["provisional", "certified"])
    def test_worker_joined_when_reduce_raises(self, monkeypatch, failing_row):
        # Realizing row 1 is done first on its provisional frequency, where
        # the failure is held back until the frequency is certified; row 2
        # is realized after its certificate.  Either way reduce raises as
        # the sequential loop does, with the worker joined.
        sys = random_stable(40, 3, 3, seed=42)
        cfg = max_error_cfg(12, rho=0.999)
        order = reduce(copied(sys), cfg).rows[failing_row - 1].order
        realize = tanmor.reduction.realize_r

        def failing(data, *args):
            if data.total_order == order:
                raise RuntimeError("realization failed")
            return realize(data, *args)

        monkeypatch.setattr(tanmor.reduction, "realize_r", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="realization failed"):
            reduce(sys, cfg)
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "strategy",
        [SelectionStrategy.discrete(K=50), SelectionStrategy.random(K=50, seed=5)],
        ids=["discrete", "random"],
    )
    def test_other_rules_start_no_thread(self, monkeypatch, strategy):
        started, start = [], threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        sys = random_stable(30, 2, 2, seed=46)
        cfg = ReducerConfig(strategy, max_order=10)
        assert hex_rows(reduce(copied(sys), cfg)) == hex_rows(sequential_reduce(copied(sys), cfg))
        assert started == []


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

    @pytest.mark.parametrize(
        "sys",
        [
            StateSpace(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3)), [[0.5]]),
            StateSpace(-np.diag([1.0, 2.0, 3.0]), [[1.0], [0.0], [0.0]], [[0.0, 1.0, 1.0]]),
        ],
        ids=["no-input", "reachable-unobserved"],
    )
    def test_zero_hankel_rank_keeps_feedthrough(self, sys):
        # No state is both reachable and observable: every Hankel value is
        # zero, so each order is built at rank 0, the feedthrough alone.
        npt.assert_array_equal(hankel_values(sys), np.zeros(3))
        for k in (1, 2, 3):
            bt = balanced_truncation(sys, k)
            assert bt.n == 0
            npt.assert_array_equal(bt.D, sys.D)
        trace = sweep_trace(sys, max_error_cfg(3), [3])
        table = sweep_orders(sys, trace, [1, 3])
        assert [pt.baseline_error for pt in table] == [0.0, 0.0]

    def test_hankel_values_are_a_copy(self):
        sys = random_stable(6, 2, 2, seed=41)
        first = hankel_values(sys)
        want = first.copy()
        first[:] = -1.0
        npt.assert_array_equal(hankel_values(sys), want)

    def test_balancing_computed_once_per_parent(self, monkeypatch):
        # The Hankel values, two truncations and a sweep share one dual
        # Gramian and one n x n SVD, kept with the parent's Gramian.
        sys = random_stable(10, 2, 3, seed=42, feedthrough=True)
        trace = sweep_trace(sys, max_error_cfg(8), [2, 4, 8])
        duals, svd_shapes = [], []
        gramian, svd = tanmor.gramians.controllability_gramian, np.linalg.svd

        def counting_gramian(s):
            if s.A.shape == sys.A.shape and np.array_equal(s.A, sys.A.conj().T):
                duals.append(s)
            return gramian(s)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(tanmor.gramians, "controllability_gramian", counting_gramian)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        hankel_values(sys)
        assert balanced_truncation(sys, 4).n == 4
        assert balanced_truncation(sys, 8).n == 8
        table = sweep_orders(sys, trace, [2, 4, 8])
        assert all(math.isfinite(pt.baseline_error) for pt in table)
        assert len(duals) == 1
        assert svd_shapes.count((sys.n, sys.n)) == 1

    def test_complex_field_preserved(self):
        sys = random_stable(5, 2, 2, seed=35, field="complex")
        bt = balanced_truncation(sys, 2)
        assert bt.scalar_field == "complex"

    def test_order_zero_system(self):
        sys = StateSpace.constant(np.ones((2, 2)))
        assert hankel_values(sys).shape == (0,)
        assert balanced_truncation(sys, 0).n == 0

    def test_baseline_runs_no_parent_sized_eigensolve(self, monkeypatch):
        # After a run on the 270-state benchmark parent, the baseline's
        # stability check reads the parent's kept Schur form, and the dual's
        # Gramian checks the poles of the flipped form it is seeded with:
        # no eigvals or eig of size n.
        sys = flex_structure_model()
        cfg = ReducerConfig(SelectionStrategy.discrete(omega_min=0.1, omega_max=100.0, K=50), 8)
        trace = reduce(sys, cfg)
        sizes = []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals

        def recording_eig(a):
            sizes.append(a.shape[0])
            return eig(a)

        def recording_eigvals(a):
            sizes.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        assert balanced_truncation(sys, 12).n == 12
        table = sweep_orders(sys, trace, [4, 8])
        assert all(math.isfinite(row.baseline_error) for row in table)
        assert all(n < sys.n for n in sizes)


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

    def test_baseline_calls_balanced_truncation_per_order(self, monkeypatch):
        # The sweep's baseline is the public balanced_truncation, looked up
        # on the module at each order.
        sys = random_stable(8, 2, 2, seed=43)
        trace = sweep_trace(sys, max_error_cfg(8), [8])
        requested, inner = [], tanmor.reduction.balanced_truncation

        def counting(s, order):
            requested.append(order)
            return inner(s, order)

        monkeypatch.setattr(tanmor.reduction, "balanced_truncation", counting)
        assert len(sweep_orders(sys, trace, [0, 2, 5, 12])) == 4
        assert requested == [0, 2, 5, sys.n]

    def test_balanced_baseline_rejects_unstable_parent(self):
        sys = random_mixed(4, 2, 2, 2, seed=40)
        trace = sweep_trace(sys, max_error_cfg(4, max_iters=3), [2])
        with pytest.raises(UnstableSystem):
            sweep_orders(sys, trace, [2])
        assert len(sweep_orders(sys, trace, [2], baseline="none")) == 1
