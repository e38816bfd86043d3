"""Greedy reduction driver, balanced-truncation baseline, and order sweeps.

:func:`reduce` runs the outer loop: propose a frequency, refine it against
the existing samples, grow the interpolation data, re-solve the output
weights, and assemble the next reduced model.  Every iteration is recorded
as a :class:`TraceRow`, including snapshots of the intermediate model and
data so diagnostics can replay any step.  A max-error proposal is
certified by a Hamiltonian eigensolve on a worker thread while the loop
goes on with the provisional frequency; a row is recorded only once its
certificate confirms it.

:func:`balanced_truncation` provides the classical square-root baseline
for stable systems, and :func:`sweep_orders` tabulates both methods over a
list of target orders from one finished greedy run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import IndexOutOfRange, TanmorError, UnstableSystem
from .gramians import _Round, _parent_context, _resume, error_norm
from .interpolation import (
    InterpData,
    append_point,
    extend_point,
    realize_r,
    truncated_point,
)
from .lti import (
    StateSpace,
    _evaluator,
    _keep_schur_form,
    is_strictly_stable,
)
from .selection import (
    SelectionStrategy,
    SplitMix64,
    StrategyKind,
    _max_error_search,
    refine,
    select_discrete,
    select_random,
)
from .weights import solve_weights

__all__ = [
    "ReducerConfig",
    "TraceRow",
    "ReductionTrace",
    "SweepPoint",
    "reduce",
    "balanced_truncation",
    "hankel_values",
    "sweep_orders",
]


@dataclasses.dataclass(frozen=True)
class ReducerConfig:
    """Settings of the greedy reduction loop.

    Attributes
    ----------
    strategy : SelectionStrategy
        How the next frequency is proposed.
    max_order : int
        State budget of the reduced model; the loop never exceeds it and
        stops once no further block fits.
    mu : float
        Relative merge tolerance for nearby frequencies.
    rho : float
        Singular-value window factor; values close to 1 take one direction
        per iteration, smaller values batch clustered directions.
    gamma_rel_tol : float
        Stop when the objective falls below this fraction of its starting
        value (the squared H2 norm of the strictly proper part).
    error_rel_tol : float, optional
        Stop when the measured error norm falls below this fraction of the
        square root of the starting objective.  Forces error tracking.
    max_iters : int
        Hard iteration bound.
    track_error : bool
        Measure the error norm each iteration.  The parent's ordered Schur
        split is computed once per run, and its Gramian comes from that
        split; each measurement then costs recursive blocked triangular
        Sylvester solves against them (O(n^2 r) for parent order n and
        model order r), products with the parent's Gramian factor (O(n^2 r))
        and an r x r eigensolve of a Schur complement for the rounding
        bound (see :func:`tanmor.error_norm`); nothing of size n + r is
        formed.  A model whose stated rounding bound exceeds the guard's
        threshold (a badly scaled realization) gets a NaN row.  The
        objective gamma needs the parent's Gramian, so its split is
        computed on untracked runs too.
    """

    strategy: SelectionStrategy
    max_order: int
    mu: float = 1e-3
    rho: float = 0.95
    gamma_rel_tol: float = 1e-8
    error_rel_tol: float | None = None
    max_iters: int = 100
    track_error: bool = True

    def __post_init__(self):
        if not isinstance(self.strategy, SelectionStrategy):
            raise TypeError("strategy must be a SelectionStrategy")
        if self.max_order < 1:
            raise ValueError(f"max_order must be positive, got {self.max_order}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not 0.0 < self.gamma_rel_tol < 1.0:
            raise ValueError(
                f"gamma_rel_tol must lie in (0, 1), got {self.gamma_rel_tol}"
            )
        if self.error_rel_tol is not None and not 0.0 < self.error_rel_tol < 1.0:
            raise ValueError(
                f"error_rel_tol must lie in (0, 1), got {self.error_rel_tol}"
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")


@dataclasses.dataclass(frozen=True, eq=False)
class TraceRow:
    """One iteration of the greedy loop.

    ``error_norm`` is the H2 norm of the error system, within the rounding
    bound stated by :func:`tanmor.error_norm`, or NaN when error tracking
    is off or the norm could not be measured (the error system has an
    imaginary-axis pole, a solve failed, or the rounding bound exceeded the
    guard's threshold).  ``model`` and
    ``data`` snapshot the reduced system and the interpolation state as of
    this iteration's end.  ``seconds`` is the row's latency: wall time from
    the start of its proposal until its model and the certificate of its
    frequency both exist.  Max-error rows overlap in time (the next
    proposal starts while a row waits for its certificate, see
    :func:`reduce`), so their seconds add up to more than the run's wall
    time; on discrete and random runs the rows follow one another.
    """

    iteration: int
    omega: float
    r_min: int
    r_max: int
    order: int
    gamma: float
    error_norm: float
    stable: bool
    seconds: float
    model: StateSpace = dataclasses.field(repr=False)
    data: InterpData = dataclasses.field(repr=False)


@dataclasses.dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Full history and final state of a greedy run."""

    rows: tuple[TraceRow, ...]
    model: StateSpace
    weights: np.ndarray
    data: InterpData
    gamma0: float
    stop_reason: str

    @property
    def final_gamma(self) -> float:
        return self.rows[-1].gamma if self.rows else self.gamma0

    def row_at_order(self, order: int) -> TraceRow | None:
        """Last recorded row whose model order does not exceed ``order``."""
        best = None
        for row in self.rows:
            if row.order <= order:
                best = row
        return best


class _State(NamedTuple):
    """What the loop carries from one iteration to the next."""

    data: InterpData
    weights: np.ndarray
    model: StateSpace
    gamma: float
    last_err: float


class _Step(NamedTuple):
    """One iteration's outcome before it is recorded: the state after it and its row's fields."""

    state: _State
    omega: float
    r_min: int
    r_max: int
    error_norm: float
    stable: bool

    def row(self, iteration: int, seconds: float) -> TraceRow:
        s = self.state
        return TraceRow(
            iteration=iteration,
            omega=self.omega,
            r_min=self.r_min,
            r_max=self.r_max,
            order=s.data.total_order,
            gamma=s.gamma,
            error_norm=self.error_norm,
            stable=self.stable,
            seconds=seconds,
            model=s.model,
            data=s.data,
        )


def _proposal(sys, model, cfg: ReducerConfig, rng: SplitMix64 | None):
    """The next frequency, as a generator that returns it.

    Max-error selection yields the Hamiltonian rounds of
    :func:`_max_error_search` (:class:`tanmor.gramians._Round`); the other
    rules yield nothing.
    """
    kind = cfg.strategy.kind
    if kind is StrategyKind.MAX_ERROR:
        return (yield from _max_error_search(sys, model))
    if kind is StrategyKind.DISCRETE:
        return select_discrete(sys, model, cfg.strategy.grid)
    return select_random(sys, model, cfg.strategy, rng)


def _halted(exc: BaseException) -> str:
    return f"halted[{type(exc).__name__}]: {exc}"


def reduce(sys: StateSpace, cfg: ReducerConfig) -> ReductionTrace:
    """Run the greedy interpolation loop on ``sys``.

    The parent Gramian is computed once up front and kept in the
    per-parent cache that :func:`tanmor.error_norm` also reads, and the
    parent's response evaluator is built from the same Schur form before
    the first iteration, so no row's ``seconds`` carry set-up work; each
    iteration then adds one frequency (or grows an existing one), re-solves
    the weights, and realizes the next model.  Any library or LAPACK error raised
    mid-iteration (rank exhaustion, a singular resolvent at a proposed
    frequency, a peak search that does not converge, a failed
    factorization, ...) halts the loop and the trace
    keeps the last completed state, with the cause recorded in
    ``stop_reason``.

    With max-error selection, the proposal is a peak search that yields
    Hamiltonian rounds (``tanmor.gramians._Round``), each with the
    provisional frequency it certifies, and that is driven by the same
    step as every peak search (``tanmor.gramians._resume``).  The
    eigensolve that certifies an iteration's frequency runs on one worker
    thread, started with the first such solve and joined before this
    returns.  Meanwhile this thread completes the iteration with the
    provisional frequency and takes the next iteration's proposal through
    its first Hamiltonian, which it solves itself.  The iteration is recorded only once its
    certificate confirms the frequency.  If the certificate moves the
    frequency (the search needs another round), or the solve or the search
    raises, that work is thrown away and the iteration goes on from the
    last recorded state, as a run without the worker would.  So rows,
    models and ``stop_reason`` are those of a sequential run, bit for bit;
    only a row's ``seconds`` differ: each row's time runs from the start
    of its proposal until its model and its certificate both exist, so
    the rows of a max-error run overlap in time.  Both solves, the
    worker's and this thread's, go through the one kernel that solves
    every Hamiltonian, :func:`tanmor._lapack.eigvals_overwrite`: LAPACK's
    xGEEV on the Hamiltonian's own Fortran-ordered array, overwritten in
    place, with the GIL released.  So each certificate in flight holds one
    2(n + r)-square array, and the two solves run at the same time.
    Discrete and random selection yield no Hamiltonian and run on the
    calling thread alone.

    Raises
    ------
    InvariantViolation
        If the parent has imaginary-axis poles (no Gramian exists).
    IllConditionedLyapunov
        If the parent Gramian's coupling or block solve is refused (see
        :func:`tanmor.controllability_gramian`); nothing is iterated.
    """
    gram = _parent_context(sys).gramian(sys)
    if sys.n:
        _evaluator(sys)
    data = InterpData.empty(sys)
    base = solve_weights(sys, gram, data)
    gamma0 = base.gamma

    track = cfg.track_error or cfg.error_rel_tol is not None
    rng = (
        SplitMix64(cfg.strategy.seed)
        if cfg.strategy.kind is StrategyKind.RANDOM
        else None
    )

    def stop_reason(state: _State, it: int) -> str | None:
        if it > cfg.max_iters:
            return "max-iters"
        if state.gamma <= cfg.gamma_rel_tol * gamma0:
            return "converged-gamma"
        if cfg.error_rel_tol is not None and state.last_err <= cfg.error_rel_tol * math.sqrt(
            gamma0
        ):
            return "converged-error"
        if state.data.total_order >= cfg.max_order:
            return "max-order"
        return None

    def advance(state: _State, omega: float) -> _Step | str:
        """The iteration after its proposal, or the reason the loop stops there."""
        data = state.data
        try:
            ref = refine(sys, data.points, omega, cfg.mu, cfg.rho)
            per_direction = 2 if sys.is_real and ref.omega > 0.0 else 1
            allowed = (cfg.max_order - data.total_order) // per_direction
            if allowed < 1:
                return "max-order"
            r_hi = min(ref.r_max, ref.r_min + allowed - 1)
            pt = truncated_point(ref.response, ref.r_min, r_hi)
            if ref.merged_index is None:
                data = append_point(data, sys, pt)
            else:
                data = extend_point(data, sys, ref.merged_index, pt)
            sol = solve_weights(sys, gram, data)
        except (TanmorError, np.linalg.LinAlgError) as exc:
            return _halted(exc)
        model = realize_r(data, sol.w, sys.D)
        # Kept: the error norm and the next selection read this form.
        stable = is_strictly_stable(_keep_schur_form(model))
        err_val, last_err = math.nan, state.last_err
        if track:
            try:
                err_val = last_err = error_norm(sys, model).value
            except (TanmorError, np.linalg.LinAlgError):
                # The measurement is diagnostic; a model whose error system
                # has no finite norm (or defeats the solver) still gets
                # recorded, and the objective keeps driving the stop logic.
                pass
        after = _State(data, sol.w, model, sol.gamma, last_err)
        return _Step(after, ref.omega, ref.r_min, r_hi, err_val, stable)

    def speculate(state: _State, omega: float, it: int):
        """Iteration ``it`` on a provisional frequency, and the next one's proposal.

        Returns the step (None if it raised), the time it was done and,
        when the loop would go on after it, ``(start time, proposal, its
        reply)`` for iteration ``it + 1``: the proposal's first Hamiltonian
        is solved here, on this thread, while the worker certifies
        ``omega``.  Anything that raises is left out; it is redone from the
        recorded state if ``omega`` is certified, and raises there if it
        must.
        """
        try:
            step = advance(state, omega)
        except Exception:
            return None, None, None
        done = time.perf_counter()
        if isinstance(step, str) or stop_reason(step.state, it + 1) is not None:
            return step, done, None
        proposal = _proposal(sys, step.state.model, cfg, rng)
        try:
            ask = _resume(proposal, None)
            if isinstance(ask, _Round):
                ask = _resume(proposal, _lapack.eigvals_overwrite(ask.ham))
        except Exception:
            return step, done, None
        return step, done, (done, proposal, ask)

    rows: list[TraceRow] = []
    state = _State(data, base.w, realize_r(data, base.w, sys.D), gamma0, math.inf)
    it, ahead = 1, None
    # The one worker thread, started by the first Hamiltonian; discrete and
    # random runs start none.
    worker: ThreadPoolExecutor | None = None
    try:
        while True:
            if ahead is None:
                reason = stop_reason(state, it)
                if reason is not None:
                    break
                t0, proposal, ask = time.perf_counter(), _proposal(sys, state.model, cfg, rng), None
            else:
                (t0, proposal, ask), ahead = ahead, None
            step = None
            try:
                if ask is None:
                    ask = _resume(proposal, None)
                while isinstance(ask, _Round):
                    # A Hamiltonian to certify the provisional frequency
                    # with: solved by the worker while this thread goes on.
                    # The worker reads the clock as soon as it is solved.
                    if worker is None:
                        worker = ThreadPoolExecutor(max_workers=1)
                    ham, omega = ask
                    certificate = worker.submit(_lapack.eigvals_overwrite, ham)
                    certified = worker.submit(time.perf_counter)
                    del ask, ham
                    step, modelled, ahead = speculate(state, omega, it)
                    ask = _resume(proposal, certificate.result())
                    if not (isinstance(ask, float) and ask == omega):
                        step = ahead = None
            except (TanmorError, np.linalg.LinAlgError) as exc:
                reason = _halted(exc)
                break
            if step is None:
                step = advance(state, ask)
                finished = time.perf_counter()
            else:
                finished = max(modelled, certified.result())
            if isinstance(step, str):
                reason = step
                break
            rows.append(step.row(it, finished - t0))
            state = step.state
            it += 1
    finally:
        if worker is not None:
            worker.shutdown()

    return ReductionTrace(tuple(rows), state.model, state.weights, state.data, gamma0, reason)


# ---------------------------------------------------------------------------
# balanced-truncation baseline
# ---------------------------------------------------------------------------


def hankel_values(sys: StateSpace) -> np.ndarray:
    """Hankel singular values of a strictly stable system, descending.

    They come from the balancing that :func:`balanced_truncation` projects
    with, computed once per parent and kept with its Gramian; each call
    returns a fresh copy.

    Raises
    ------
    UnstableSystem
        If any pole is outside the open left half-plane.
    """
    # Kept: the balancing Gramians below read the same form.
    if not is_strictly_stable(_keep_schur_form(sys)):
        raise UnstableSystem("Hankel values are defined for stable systems only")
    if sys.n == 0:
        return np.zeros(0)
    return _parent_context(sys).balancing(sys)[3].copy()


def balanced_truncation(sys: StateSpace, order: int) -> StateSpace:
    """Square-root balanced truncation to the given state order.

    The projection keeps the ``order`` largest Hankel directions; if the
    request exceeds the numerical Hankel rank, the extra directions carry
    no energy and the model is built at the numerical rank instead (its
    response is indistinguishable at working precision).  At rank 0 (no
    state both reachable and observable) that is the feedthrough alone.
    The balancing Gramians and their SVD are computed on the first call
    for a parent and kept with its Gramian, so further calls, at any
    order, only project.

    Raises
    ------
    UnstableSystem
        If the system is not strictly stable.
    IndexOutOfRange
        If ``order`` is negative or exceeds the state dimension.
    """
    # Kept: the balancing Gramians below read the same form.
    if not is_strictly_stable(_keep_schur_form(sys)):
        raise UnstableSystem("balanced truncation requires a strictly stable system")
    order = int(order)
    if not 0 <= order <= sys.n:
        raise IndexOutOfRange(
            f"target order {order} outside [0, {sys.n}]"
        )
    if order:
        Lp, Lq, U, s, Vh = _parent_context(sys).balancing(sys)
        rank = int(np.count_nonzero(s > sys.n * np.finfo(float).eps * s[0]))
        order = min(order, rank)
    if order == 0:
        return StateSpace.constant(sys.D, scalar_field=sys.scalar_field)
    root = np.sqrt(s[:order])
    T = Lp @ Vh[:order].conj().T / root
    Ti = (U[:, :order].conj().T @ Lq.conj().T) / root[:, None]
    return StateSpace(
        Ti @ sys.A @ T,
        Ti @ sys.B,
        sys.C @ T,
        sys.D,
        scalar_field=sys.scalar_field,
    )


# ---------------------------------------------------------------------------
# order sweeps
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Error comparison at one requested order.

    ``achieved_order`` is the greedy model's actual order (the largest one
    not exceeding the request); ``baseline_error`` is NaN when no baseline
    was requested.
    """

    order: int
    achieved_order: int
    error: float
    baseline_error: float


def sweep_orders(
    sys: StateSpace,
    trace: ReductionTrace,
    orders: Sequence[int],
    baseline: str = "balanced",
) -> list[SweepPoint]:
    """Tabulate greedy and baseline errors over a list of target orders.

    ``trace`` is a finished greedy run on ``sys`` (run it with error
    tracking, or every greedy error reads NaN); it supplies every row: for
    each order the last trace row that fits the budget is used, so an order
    above the run's final order reports the final model, as its
    ``achieved_order`` shows.  Orders smaller than the first recorded model
    fall back to the zero-order (feedthrough-only) error, the square root
    of the starting objective.

    Parameters
    ----------
    baseline : str
        ``"balanced"`` compares against square-root balanced truncation
        at each order (clipped to the state dimension), one
        :func:`balanced_truncation` call per order; the balancing Gramians
        and SVD are computed once per parent and kept with its Gramian.
        ``"none"`` skips the comparison.

    Raises
    ------
    UnstableSystem
        If the balanced baseline is requested for a system that is not
        strictly stable.
    """
    if baseline not in ("balanced", "none"):
        raise ValueError(f"unknown baseline {baseline!r}")
    orders = [int(k) for k in orders]
    if any(k < 0 for k in orders):
        raise ValueError("orders must be nonnegative")
    if not orders:
        return []

    out: list[SweepPoint] = []
    for k in orders:
        row = trace.row_at_order(k)
        if row is None:
            achieved, err = 0, math.sqrt(trace.gamma0)
        else:
            achieved, err = row.order, row.error_norm
        if baseline == "balanced":
            bt = balanced_truncation(sys, min(k, sys.n))
            bt_err = error_norm(sys, bt).value
        else:
            bt_err = math.nan
        out.append(SweepPoint(k, achieved, err, bt_err))
    return out
