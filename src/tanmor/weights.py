"""Closed-form weight optimization.

For interpolation data with assembled tangential rows Cs (``tangent_obs``)
and parent output map C, the reduction objective is the quadratic form

    gamma(W) = trace([I  W] X [I;  W*]),
    X = [[C Theta C*,  -C Theta Cs*], [-Cs Theta C*,  Cs Theta Cs*]],

whose minimizer solves the normal equations W (Cs Theta Cs*) = C Theta Cs*.
Everything is computed through a PSD factor Theta = L L*: with M = Cs L the
solve is an ordinary least-squares problem ``min ||C L - W M||_F`` and
gamma is its squared residual, so it can never go negative from
rounding.

The projected Gramian Cs Theta Cs* loses rank once the interpolation data
saturates the minimal order of the parent (or when sample data repeats).
Its numerical rank, with eigenvalues below 1e-12 times the largest treated
as zero, is reported as a diagnostic; the solve itself uses the
minimal-norm pseudo-inverse with the usual machine-precision cutoff, which
keeps the computed objective monotone and lets it reach zero at
saturation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch, GramianRankCollapse
from .gramians import GramianResult
from .interpolation import InterpData
from .lti import StateSpace

__all__ = ["WeightSolution", "solve_weights"]

#: Eigenvalues of Cs Theta Cs* at or below this times the largest eigenvalue
#: count as zero for the rank diagnostic (equivalently, singular values of
#: Cs L below 1e-6 times the largest).
GRAM_RANK_EIG_RTOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class WeightSolution:
    """Optimal weights with the objective value and rank diagnostics.

    Attributes
    ----------
    w : numpy.ndarray
        p x r weight matrix (real whenever the parent data is real).
    gamma : float
        Objective value at ``w``; nonnegative up to roundoff.
    gram_rank : int
        Numerical rank of the projected Gramian Cs Theta Cs*.
    regularized : bool
        True when ``gram_rank < r``, i.e. the solve went through the
        minimal-norm pseudo-inverse rather than a full-rank system.
    """

    w: np.ndarray
    gamma: float
    gram_rank: int
    regularized: bool


def solve_weights(
    sys: StateSpace, theta: GramianResult, data: InterpData
) -> WeightSolution:
    """Minimize the weighted objective over all weight matrices.

    For empty data the optimum is the empty p x 0 matrix and gamma is the
    baseline trace(C Theta C*), the squared H2 norm of the strictly proper
    part of the parent.  Otherwise W solves the least-squares problem
    ``min ||C L - W (Cs L)||_F`` (L is ``theta.factor``, computed once per
    Gramian), satisfying the stationarity condition
    W (Cs Theta Cs*) = C Theta Cs*, and gamma is the squared residual,
    which equals trace([I W] X [I; W*]).

    Raises
    ------
    GramianRankCollapse
        If Cs Theta Cs* is exactly the zero matrix (degenerate data, e.g.
        C = 0 or samples only at rank-zero directions).
    """
    if data.n != sys.n or data.p != sys.p:
        raise DimensionMismatch(
            f"interpolation data (n={data.n}, p={data.p}) does not match "
            f"system (n={sys.n}, p={sys.p})"
        )
    dtype = np.float64 if sys.is_real else np.complex128
    r = data.total_order
    L = theta.factor
    CL = sys.C @ L
    if r == 0:
        gamma = float(np.linalg.norm(CL, "fro") ** 2)
        return WeightSolution(np.zeros((sys.p, 0), dtype=dtype), gamma, 0, False)

    M = data.tangent_obs @ L
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        raise GramianRankCollapse(
            "projected Gramian is identically zero; interpolation data is degenerate"
        )
    gram_rank = int(np.count_nonzero(s * s >= GRAM_RANK_EIG_RTOL * smax * smax))
    keep = s > max(M.shape) * np.finfo(float).eps * smax
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    W = CL @ pinv
    gamma = float(np.linalg.norm(CL - W @ M, "fro") ** 2)
    return WeightSolution(
        W.astype(dtype, copy=False), gamma, gram_rank, gram_rank < r
    )
