"""Next-frequency selection strategies and sample refinement.

Three interchangeable rules propose the next interpolation frequency from
the current error system:

* max-error: the frequency attaining the L-infinity norm of G - R,
  found by the Hamiltonian peak-gain solver;
* discrete: the argmax of the pointwise spectral error over a fixed grid;
* random: the argmax over a fresh batch of log-uniform draws from a
  deterministic, portable generator.

:func:`refine` then decides whether the proposal merges into a nearby
existing sample (growing its rank by one) and how many singular
directions to take, based on the relative gap mu and the singular-value
cutoff factor rho.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from .errors import EmptyGrid, RankExhausted
from .gramians import (
    _parent_context,
    _peak_search,
    _pole_candidates,
    _sigma_max_batch,
    _sigma_max_slope,
    _solved,
)
from .interpolation import InterpPoint, RANK_FLOOR_RTOL
from .lti import (
    FreqResponse,
    StateSpace,
    _dense_response_slope,
    _keep_schur_form,
    _response_slopes,
    _responses,
    series_sub,
)

__all__ = ["StrategyKind", "SelectionStrategy"]


class SplitMix64:
    """Portable 64-bit pseudo-random generator (SplitMix64, Steele et al. 2014).

    The state advances by the golden-gamma increment 0x9E3779B97F4A7C15 and
    each output mixes the new state through two xor-multiply rounds.  The
    algorithm is fixed here byte-for-byte so seeded runs reproduce across
    platforms and library versions; :meth:`next_float` uses the top 53 bits
    to form a double in [0, 1).
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = int(seed) & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return (z ^ (z >> 31)) & self._MASK

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def _next_floats(rng: SplitMix64, k: int) -> list[float]:
    """The next k values of ``rng.next_float()``, drawn in one vectorized step.

    NumPy's uint64 arithmetic wraps modulo 2^64 as the masks of
    :meth:`SplitMix64.next_u64` do, and a 53-bit integer converts to a
    double exactly, so the floats and the advanced state are the scalar ones.
    """
    gamma = 0x9E3779B97F4A7C15
    z = np.uint64(rng.state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(gamma)
    rng.state = (rng.state + k * gamma) & SplitMix64._MASK
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(float) * 2.0**-53).tolist()


class StrategyKind(enum.Enum):
    MAX_ERROR = "max-error"
    DISCRETE = "discrete"
    RANDOM = "random"


@dataclasses.dataclass(frozen=True, eq=False)
class SelectionStrategy:
    """Configuration of the frequency-selection rule.

    Attributes
    ----------
    kind : StrategyKind
    grid : tuple of float, optional
        Evaluation grid for the discrete rule, sorted strictly ascending,
        nonnegative (zero allowed once, at the front).  When omitted for a
        discrete strategy, K log-spaced points on [omega_min, omega_max]
        are generated.
    omega_min, omega_max : float
        Band for the random rule's log-uniform draws (and the default
        discrete grid).
    K : int
        Number of grid points or draws per iteration.
    seed : int
        Seed of the deterministic generator used by the random rule.
    """

    kind: StrategyKind
    grid: tuple[float, ...] | None = None
    omega_min: float = 1e-2
    omega_max: float = 1e2
    K: int = 100
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, StrategyKind):
            object.__setattr__(self, "kind", StrategyKind(self.kind))
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        if not (0.0 < self.omega_min < self.omega_max):
            raise ValueError(
                f"need 0 < omega_min < omega_max, got ({self.omega_min}, {self.omega_max})"
            )
        if self.grid is not None:
            grid = tuple(float(w) for w in self.grid)
            if any(w < 0 for w in grid):
                raise ValueError("grid frequencies must be nonnegative")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("grid must be sorted strictly ascending")
            object.__setattr__(self, "grid", grid)
        elif self.kind is StrategyKind.DISCRETE:
            auto = np.geomspace(self.omega_min, self.omega_max, self.K)
            object.__setattr__(self, "grid", tuple(float(w) for w in auto))

    @classmethod
    def max_error(cls) -> "SelectionStrategy":
        return cls(StrategyKind.MAX_ERROR)

    @classmethod
    def discrete(cls, grid=None, omega_min=1e-2, omega_max=1e2, K=100) -> "SelectionStrategy":
        return cls(
            StrategyKind.DISCRETE,
            grid=None if grid is None else tuple(grid),
            omega_min=omega_min,
            omega_max=omega_max,
            K=K,
        )

    @classmethod
    def random(cls, omega_min=1e-2, omega_max=1e2, K=100, seed=0) -> "SelectionStrategy":
        return cls(
            StrategyKind.RANDOM,
            omega_min=omega_min,
            omega_max=omega_max,
            K=K,
            seed=seed,
        )


@dataclasses.dataclass(frozen=True, eq=False)
class Refinement:
    """Outcome of frequency/rank refinement.

    ``merged_index`` names the existing point whose rank grows; it is
    present exactly when ``r_min > 1``.  ``response`` is the parent's
    response at ``omega``, as :func:`refine` read it from the per-parent memo.
    """

    omega: float
    r_min: int
    r_max: int
    merged_index: int | None = None
    response: FreqResponse | None = dataclasses.field(default=None, repr=False)


def _pointwise_error(gs: np.ndarray, r: StateSpace, omegas) -> np.ndarray:
    """sigma_max(G(jw) - R(jw)) at each w, given the stacked parent responses gs."""
    return _sigma_max_batch(gs - _responses(r, omegas))


def _parent_at(g: StateSpace, omegas) -> np.ndarray:
    """G(j*w) for each w, stacked; evaluates only frequencies not seen before.

    The memo lives in the per-parent context of :mod:`tanmor.gramians`.
    """
    memo = _parent_context(g).responses
    fresh = [float(w) for w in dict.fromkeys(omegas) if w not in memo]
    if fresh:
        memo.update(zip(fresh, _responses(g, fresh)))
    return np.array([memo[w] for w in omegas]).reshape(-1, g.p, g.q)


def select_max_error(g: StateSpace, r: StateSpace, rtol: float = 1e-6) -> float:
    """Frequency where the spectral norm of the error G - R peaks.

    Runs the search of :func:`tanmor.peak_gain` on the error G - R, with
    every candidate evaluated as sigma_max(G(jw) - R(jw)).  As there, the
    poles of g and r are read off their kept Schur forms and every response
    comes from the cached evaluators of :mod:`tanmor.lti` built on them,
    all candidates of a round in one stacked product.  A memo w -> G(jw)
    in the per-parent context of :mod:`tanmor.gramians`, which does not
    keep g alive, means each call evaluates R at every candidate but G only
    at frequencies not seen before: the candidates from the poles of r, the
    local maximum and the Hamiltonian midpoints.  The local stage's slopes
    Re(u1* (G'(jw) - R'(jw)) v1) are not memoized; they take G and G' from
    the parent's evaluator and R and R' from a dense solve
    (:func:`tanmor.lti._dense_response_slope`), the one response path that
    differs from :func:`tanmor.peak_gain`'s, since the evaluator of a badly
    scaled r is off by enough to move the root of the slope.  The
    Hamiltonian test on the stacked error system ``series_sub(g, r)`` then
    certifies the result, usually in its first round, each Hamiltonian
    solved in place on the calling thread
    (:func:`tanmor._lapack.eigvals_overwrite`).  The search maps each peak
    it reports to a frequency as below, so every round it yields carries
    the frequency it certifies; :func:`tanmor.reduce` runs the same
    search, but solves each round's Hamiltonian on a worker thread while
    it goes on with that provisional frequency, and keeps that work only
    once the certificate confirms it.

    A plateau-at-infinity result is mapped to 10 times the largest pole
    magnitude of the error system (there is no finite argmax to return);
    for real systems a negative locator is folded to its absolute value,
    since real data is interpolated at +/- jw jointly anyway.

    Raises
    ------
    PeakSearchNotConverged
        If the search runs out of Hamiltonian rounds.
    """
    return _solved(_max_error_search(g, r, rtol))


def _max_error_search(g: StateSpace, r: StateSpace, rtol: float = 1e-6):
    """:func:`select_max_error` as a peak search (see :func:`tanmor.gramians._peak_search`).

    Its ``locate`` step maps each peak to a frequency, so each
    :class:`tanmor.gramians._Round` carries the frequency that is returned
    if its Hamiltonian's eigenvalues certify the current peak, and the
    search returns the selected frequency.
    """
    err = series_sub(g, r)
    # Kept: the evaluators of g and r read these forms next.
    poles = np.concatenate([_keep_schur_form(g).poles(), _keep_schur_form(r).poles()])

    def sigma_max(omegas):
        return _pointwise_error(_parent_at(g, omegas), r, omegas)

    def sigma_slope(w):
        (gv,), (gd,) = _response_slopes(g, [w])
        rv, rd = _dense_response_slope(r, w)
        return _sigma_max_slope(gv - rv, gd - rd)

    def locate(peak):
        w = peak.omega_star
        if math.isinf(w):
            w = 10.0 * float(np.max(np.abs(poles))) if poles.size else 1.0
        if g.is_real and r.is_real:
            w = abs(w)
        return float(w)

    candidates = _pole_candidates(poles, err.is_real)
    return _peak_search(err, candidates, sigma_max, sigma_slope, rtol, locate)


def select_discrete(g: StateSpace, r: StateSpace, grid) -> float:
    """Grid frequency with the largest pointwise spectral error.

    Ties resolve toward the smallest frequency.  The parent's responses on
    the grid come from the same memo in the per-parent context as
    :func:`select_max_error`, so over a run G is evaluated once per grid
    point and each call evaluates only R.

    Raises
    ------
    EmptyGrid
        If the grid has no points.
    """
    omegas = np.unique(np.asarray([float(w) for w in grid], dtype=float))
    if omegas.size == 0:
        raise EmptyGrid("discrete selection needs a nonempty grid")
    errs = _pointwise_error(_parent_at(g, omegas), r, omegas)
    return float(omegas[int(np.argmax(errs))])


def select_random(
    g: StateSpace,
    r: StateSpace,
    cfg: SelectionStrategy,
    rng: SplitMix64 | None = None,
) -> float:
    """Best of K log-uniform random frequencies.

    Draws K frequencies with log10(w) uniform on
    [log10(omega_min), log10(omega_max)] from the supplied generator (a
    fresh ``SplitMix64(cfg.seed)`` when none is given; passing one in lets
    consecutive calls continue the same stream) and returns the draw with
    the largest pointwise spectral error.
    """
    if cfg.kind is not StrategyKind.RANDOM:
        raise ValueError(f"strategy kind is {cfg.kind}, expected RANDOM")
    if rng is None:
        rng = SplitMix64(cfg.seed)
    lg_lo = math.log10(cfg.omega_min)
    lg_hi = math.log10(cfg.omega_max)
    # Each power stays a Python float power: NumPy's differs from libm's
    # pow by an ulp on about 5% of draws.
    draws = np.array([10.0 ** (lg_lo + x * (lg_hi - lg_lo)) for x in _next_floats(rng, cfg.K)])
    # Fresh draws every call: memoizing them all would only grow the memo,
    # so only the winner is kept, for refine to read.
    gs = _responses(g, draws)
    best = int(np.argmax(_pointwise_error(gs, r, draws)))
    _parent_context(g).responses[float(draws[best])] = gs[best].copy()
    return float(draws[best])


def refine(
    g: StateSpace,
    points: Sequence[InterpPoint],
    omega: float,
    mu: float,
    rho: float,
) -> Refinement:
    """Decide merge-vs-new and the singular-index window for a proposal.

    The candidate merges into the nearest existing sample frequency w_i
    when the relative gap |w_i - w| / |w| is below ``mu`` (or when both
    are exactly zero; a zero candidate never merges into a nonzero point
    since the relative gap is then unbounded).  A merge samples the next
    singular direction of the existing point, otherwise a new point starts
    at the leading direction.  The window closes at the last singular
    value within factor ``rho`` of the first included one.

    Parameters
    ----------
    g : StateSpace
        Full model.  Its response at the (possibly merged) frequency is
        read from the per-parent memo that the selection rules fill (and
        evaluated there only if missing); the value is returned as
        ``Refinement.response``.
    points : sequence of InterpPoint
        Existing samples.
    omega : float
        Proposed frequency.
    mu : float
        Relative merge tolerance, >= 0.
    rho : float
        Singular-value cutoff factor in (0, 1].

    Raises
    ------
    RankExhausted
        If a merge asks for more directions than the response's numerical
        rank provides.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if g.is_real and omega < 0.0:
        raise ValueError("real systems take nonnegative sample frequencies")

    points = list(points)
    merged_index: int | None = None
    target = float(omega)
    r_min = 1
    if points:
        gaps = [abs(pt.omega - target) for pt in points]
        i = int(np.argmin(gaps))
        near = points[i]
        if (near.omega == 0.0 and target == 0.0) or (
            target != 0.0 and abs((near.omega - target) / target) < mu
        ):
            merged_index = i
            target = near.omega
            r_min = near.rank + 1

    value = _parent_at(g, [target])[0]
    if g.is_real and target == 0.0:
        # Real, as eval_tf returns it; the imaginary part is rounding.
        value = value.real
    sv = np.linalg.svd(value, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        raise RankExhausted(f"response at omega={target} is zero; nothing to sample")
    num_rank = int(np.count_nonzero(sv > RANK_FLOOR_RTOL * sv[0]))
    if r_min > num_rank:
        raise RankExhausted(
            f"direction {r_min} requested at omega={target}, but the response "
            f"has numerical rank {num_rank}"
        )
    sigma_ref = sv[r_min - 1]
    r_max = r_min
    while r_max < num_rank and sv[r_max] >= rho * sigma_ref:
        r_max += 1
    return Refinement(target, r_min, r_max, merged_index, FreqResponse(target, value))
