"""Greedy reduction driver, balanced-truncation baseline, and order sweeps.

:func:`reduce` runs the outer loop: propose a frequency, refine it against
the existing samples, grow the interpolation data, re-solve the output
weights, and assemble the next reduced model.  Every iteration is recorded
as a :class:`TraceRow`, including snapshots of the intermediate model and
data so diagnostics can replay any step.

:func:`balanced_truncation` provides the classical square-root baseline
for stable systems, and :func:`sweep_orders` tabulates both methods over a
list of target orders from one finished greedy run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence

import numpy as np

from .errors import IndexOutOfRange, TanmorError, UnstableSystem
from .gramians import _parent_context, controllability_gramian, error_norm
from .interpolation import (
    InterpData,
    append_point,
    extend_point,
    realize_r,
    truncated_point,
)
from .lti import StateSpace, _seed_adjoint_schur_form, is_strictly_stable
from .selection import (
    SelectionStrategy,
    SplitMix64,
    StrategyKind,
    refine,
    select_discrete,
    select_max_error,
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
        model order r) and a Cholesky factorization of the (n + r) error
        Gramian for the rounding check.  A positive-definite Gramian that
        the factorization certifies skips the check's eigensolve; any
        other one adds a range-selected eigensolve of its non-positive
        eigenpairs.  The objective gamma needs the parent's Gramian, so
        its split is computed on untracked runs too.
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

    ``error_norm`` is the exact H2 norm of the error system, or NaN when
    error tracking is off or the norm could not be measured (the error
    system has an imaginary-axis pole, a solve failed, or rounding error
    swamped the value).  ``model`` and
    ``data`` snapshot the reduced system and the interpolation state as of
    this iteration's end.
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


def _propose(sys, model, cfg: ReducerConfig, rng: SplitMix64 | None) -> float:
    kind = cfg.strategy.kind
    if kind is StrategyKind.MAX_ERROR:
        return select_max_error(sys, model)
    if kind is StrategyKind.DISCRETE:
        return select_discrete(sys, model, cfg.strategy.grid)
    return select_random(sys, model, cfg.strategy, rng)


def reduce(sys: StateSpace, cfg: ReducerConfig) -> ReductionTrace:
    """Run the greedy interpolation loop on ``sys``.

    The parent Gramian is computed once up front and kept in the
    per-parent cache that :func:`tanmor.error_norm` also reads; each
    iteration then adds one frequency (or grows an existing one), re-solves
    the weights, and realizes the next model.  Any library or LAPACK error raised
    mid-iteration (rank exhaustion, a singular resolvent at a proposed
    frequency, a peak search that does not converge, a failed
    factorization, ...) halts the loop and the trace
    keeps the last completed state, with the cause recorded in
    ``stop_reason``.

    Raises
    ------
    InvariantViolation
        If the parent has imaginary-axis poles (no Gramian exists).
    """
    gram = _parent_context(sys).gramian(sys)
    data = InterpData.empty(sys)
    base = solve_weights(sys, gram, data)
    gamma0 = base.gamma
    weights = base.w
    model = realize_r(data, weights, sys.D)
    gamma = gamma0

    track = cfg.track_error or cfg.error_rel_tol is not None
    rng = (
        SplitMix64(cfg.strategy.seed)
        if cfg.strategy.kind is StrategyKind.RANDOM
        else None
    )

    rows: list[TraceRow] = []
    last_err = math.inf
    reason = "max-iters"
    for it in range(1, cfg.max_iters + 1):
        if gamma <= cfg.gamma_rel_tol * gamma0:
            reason = "converged-gamma"
            break
        if cfg.error_rel_tol is not None and last_err <= cfg.error_rel_tol * math.sqrt(
            gamma0
        ):
            reason = "converged-error"
            break
        if data.total_order >= cfg.max_order:
            reason = "max-order"
            break
        t0 = time.perf_counter()
        try:
            omega = _propose(sys, model, cfg, rng)
            ref = refine(sys, data.points, omega, cfg.mu, cfg.rho)
            per_direction = 2 if sys.is_real and ref.omega > 0.0 else 1
            allowed = (cfg.max_order - data.total_order) // per_direction
            if allowed < 1:
                reason = "max-order"
                break
            r_hi = min(ref.r_max, ref.r_min + allowed - 1)
            pt = truncated_point(ref.response, ref.r_min, r_hi)
            if ref.merged_index is None:
                data = append_point(data, sys, pt)
            else:
                data = extend_point(data, sys, ref.merged_index, pt)
            sol = solve_weights(sys, gram, data)
        except (TanmorError, np.linalg.LinAlgError) as exc:
            reason = f"halted[{type(exc).__name__}]: {exc}"
            break
        weights = sol.w
        gamma = sol.gamma
        model = realize_r(data, weights, sys.D)
        stable = is_strictly_stable(model)
        err_val = math.nan
        if track:
            try:
                err_val = last_err = error_norm(sys, model).value
            except (TanmorError, np.linalg.LinAlgError):
                # The measurement is diagnostic; a model whose error system
                # has no finite norm (or defeats the solver) still gets
                # recorded, and the objective keeps driving the stop logic.
                pass
        rows.append(
            TraceRow(
                iteration=it,
                omega=ref.omega,
                r_min=ref.r_min,
                r_max=r_hi,
                order=data.total_order,
                gamma=gamma,
                error_norm=err_val,
                stable=stable,
                seconds=time.perf_counter() - t0,
                model=model,
                data=data,
            )
        )

    return ReductionTrace(tuple(rows), model, weights, data, gamma0, reason)


# ---------------------------------------------------------------------------
# balanced-truncation baseline
# ---------------------------------------------------------------------------


def _balancing_svd(sys: StateSpace):
    # The observability Gramian is the controllability Gramian of the dual,
    # whose Schur form is the parent's, flipped (no second factorization).
    dual = StateSpace(
        sys.A.conj().T,
        sys.C.conj().T,
        sys.B.conj().T,
        sys.D.conj().T,
        scalar_field=sys.scalar_field,
    )
    Lp = _parent_context(sys).gramian(sys).factor
    _seed_adjoint_schur_form(sys, dual)
    Lq = controllability_gramian(dual).factor
    U, s, Vh = np.linalg.svd(Lq.conj().T @ Lp)
    return Lp, Lq, U, s, Vh


def hankel_values(sys: StateSpace) -> np.ndarray:
    """Hankel singular values of a strictly stable system, descending.

    Raises
    ------
    UnstableSystem
        If any pole is outside the open left half-plane.
    """
    if not is_strictly_stable(sys):
        raise UnstableSystem("Hankel values are defined for stable systems only")
    if sys.n == 0:
        return np.zeros(0)
    return _balancing_svd(sys)[3]


def balanced_truncation(sys: StateSpace, order: int) -> StateSpace:
    """Square-root balanced truncation to the given state order.

    The projection keeps the ``order`` largest Hankel directions; if the
    request exceeds the numerical Hankel rank, the extra directions carry
    no energy and the model is built at the numerical rank instead (its
    response is indistinguishable at working precision).

    Raises
    ------
    UnstableSystem
        If the system is not strictly stable.
    IndexOutOfRange
        If ``order`` is negative or exceeds the state dimension.
    """
    if not is_strictly_stable(sys):
        raise UnstableSystem("balanced truncation requires a strictly stable system")
    order = int(order)
    if not 0 <= order <= sys.n:
        raise IndexOutOfRange(
            f"target order {order} outside [0, {sys.n}]"
        )
    balancing = _balancing_svd(sys) if order and sys.n else None
    return _truncate(sys, balancing, order)


def _truncate(sys: StateSpace, balancing, order: int) -> StateSpace:
    """Project ``sys`` onto its ``order`` leading Hankel directions.

    ``balancing`` is ``_balancing_svd(sys)``; it is not read (and may be
    None) when ``order`` or the state dimension is zero.
    """
    if order == 0 or sys.n == 0:
        return StateSpace.constant(sys.D, scalar_field=sys.scalar_field)
    Lp, Lq, U, s, Vh = balancing
    rank = int(np.count_nonzero(s > sys.n * np.finfo(float).eps * s[0]))
    k = min(order, max(rank, 1))
    root = np.sqrt(s[:k])
    T = Lp @ Vh[:k].conj().T / root
    Ti = (U[:, :k].conj().T @ Lq.conj().T) / root[:, None]
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
        at each order (clipped to the state dimension); the balancing
        Gramians and SVD are computed once for the whole table.
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

    balancing = None
    if baseline == "balanced":
        if not is_strictly_stable(sys):
            raise UnstableSystem("balanced truncation requires a strictly stable system")
        if sys.n and max(orders):
            balancing = _balancing_svd(sys)

    out: list[SweepPoint] = []
    for k in orders:
        row = trace.row_at_order(k)
        if row is None:
            achieved, err = 0, math.sqrt(trace.gamma0)
        else:
            achieved, err = row.order, row.error_norm
        if baseline == "balanced":
            bt = _truncate(sys, balancing, min(k, sys.n))
            bt_err = error_norm(sys, bt).value
        else:
            bt_err = math.nan
        out.append(SweepPoint(k, achieved, err, bt_err))
    return out
