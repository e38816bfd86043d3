"""Interpolation data assembly and the reduced-model realizations.

A reduced model is assembled from truncated-SVD samples of the full
response at a set of frequencies.  Each sample contributes one block to
four matrices:

``A_nodes``
    block-diagonal node dynamics.  A sample at frequency w of a complex
    system (or at w = 0) contributes ``1j*w*I``; a sample at w > 0 of a
    real system contributes the 2r x 2r rotation block
    ``[[0, w*I], [-w*I, 0]]``, which interpolates at +jw and -jw jointly
    and keeps every assembled matrix real.
``B_denom`` / ``B_numer``
    input rows of the barycentric denominator and numerator: the residues
    U* and Sigma V* (stacked as real/imaginary parts in the real-paired
    case).
``tangent_obs``
    the tangential directions propagated through the full model's
    resolvent, i.e. solutions of Z (jw I - A) = U* C.  These rows are the
    output map of the auxiliary error system built by
    :func:`realize_h` and satisfy, blockwise, the Sylvester relation
    ``A_nodes @ tangent_obs - tangent_obs @ A = B_denom @ C``.

Given a weight matrix W, :func:`realize_r` produces the reduced system

    R = (A_nodes - B_denom W,  B_numer - B_denom D,  W,  D),

which matches U* G(jw) at every sample for any full-column-rank W and
tends to D as |s| grows.  All containers here are persistent values:
append/extend return new objects and share unchanged per-point blocks.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateFrequency,
    IndexOutOfRange,
    RankDeficient,
)
from .lti import FreqResponse, StateSpace, _block_diag, resolvent_rows

__all__ = [
    "InterpPoint",
    "InterpData",
    "truncated_point",
    "append_point",
    "extend_point",
    "realize_r",
    "realize_h",
]

#: Singular values at or below this times sigma_1 count as numerically zero
#: when slicing response SVDs.
RANK_FLOOR_RTOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class InterpPoint:
    """Truncated SVD factors of the response at one frequency.

    Attributes
    ----------
    omega : float
        Sample frequency (rad/s); nonnegative for real parent systems.
    u : numpy.ndarray
        p x r matrix of left singular vectors (orthonormal columns).
    sigma : numpy.ndarray
        Length-r vector of positive singular values, nonincreasing.
    v : numpy.ndarray
        q x r matrix of right singular vectors (orthonormal columns).
    """

    omega: float
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __init__(self, omega: float, u, sigma, v):
        u = np.atleast_2d(np.asarray(u))
        v = np.atleast_2d(np.asarray(v))
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        if sigma.ndim != 1:
            raise DimensionMismatch("sigma must be a 1-D vector of singular values")
        r = sigma.shape[0]
        if u.shape[1] != r or v.shape[1] != r:
            raise DimensionMismatch(
                f"u and v must have {r} columns to match sigma, "
                f"got {u.shape[1]} and {v.shape[1]}"
            )
        if r == 0:
            raise RankDeficient("an interpolation point needs at least one direction")
        if np.any(sigma <= 0):
            raise RankDeficient("singular values must be strictly positive")
        if np.any(np.diff(sigma) > 1e-12 * sigma[0]):
            raise RankDeficient("singular values must be nonincreasing")
        for name, arr in (("u", u), ("sigma", sigma), ("v", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "omega", float(omega))

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]


class _PointBlocks(NamedTuple):
    a: np.ndarray
    b_denom: np.ndarray
    b_numer: np.ndarray
    obs_rows: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class InterpData:
    """Assembled interpolation matrices for a growing set of points.

    Attributes
    ----------
    points : tuple of InterpPoint
    A_nodes : numpy.ndarray
        r x r block-diagonal node dynamics.
    B_denom, B_numer : numpy.ndarray
        r x p and r x q residue rows (denominator / numerator sides).
    tangent_obs : numpy.ndarray
        r x n tangential observability rows against the parent system.
    offsets : tuple of int
        Start row of each point's block in the assembled matrices.
    total_order : int
        r, the number of assembled rows; a point at w contributes its rank
        (complex parent, or w = 0) or twice its rank (real parent, w > 0).
    """

    points: tuple[InterpPoint, ...]
    blocks: tuple[_PointBlocks, ...]
    n: int
    p: int
    q: int
    scalar_field: str
    A_nodes: np.ndarray = dataclasses.field(repr=False, default=None)
    B_denom: np.ndarray = dataclasses.field(repr=False, default=None)
    B_numer: np.ndarray = dataclasses.field(repr=False, default=None)
    tangent_obs: np.ndarray = dataclasses.field(repr=False, default=None)
    offsets: tuple[int, ...] = ()
    total_order: int = 0

    def __init__(self, points, blocks, n, p, q, scalar_field):
        points = tuple(points)
        blocks = tuple(blocks)
        dtype = np.float64 if scalar_field == "real" else np.complex128
        sizes = [blk.a.shape[0] for blk in blocks]
        offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(sizes)[:-1]])) if sizes else ()
        total = int(sum(sizes))
        if blocks:
            A_nodes = _block_diag(*[blk.a for blk in blocks]).astype(dtype, copy=False)
            B_denom = np.vstack([blk.b_denom for blk in blocks]).astype(dtype, copy=False)
            B_numer = np.vstack([blk.b_numer for blk in blocks]).astype(dtype, copy=False)
            tangent_obs = np.vstack([blk.obs_rows for blk in blocks]).astype(dtype, copy=False)
        else:
            A_nodes = np.zeros((0, 0), dtype=dtype)
            B_denom = np.zeros((0, p), dtype=dtype)
            B_numer = np.zeros((0, q), dtype=dtype)
            tangent_obs = np.zeros((0, n), dtype=dtype)
        for arr in (A_nodes, B_denom, B_numer, tangent_obs):
            arr.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "scalar_field", scalar_field)
        object.__setattr__(self, "A_nodes", A_nodes)
        object.__setattr__(self, "B_denom", B_denom)
        object.__setattr__(self, "B_numer", B_numer)
        object.__setattr__(self, "tangent_obs", tangent_obs)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "total_order", total)

    @classmethod
    def empty(cls, sys: StateSpace) -> "InterpData":
        """Fresh container with no points, bound to the shape of ``sys``."""
        return cls((), (), sys.n, sys.p, sys.q, sys.scalar_field)

    def frequencies(self) -> tuple[float, ...]:
        return tuple(pt.omega for pt in self.points)


def truncated_point(resp: FreqResponse, r_min: int, r_max: int) -> InterpPoint:
    """Slice singular triplets r_min..r_max (1-based) out of a response SVD.

    The slice can start above 1 so an existing point's factors can be
    extended by the next directions of the same decomposition.  Columns of
    ``u`` are phase-normalized (first entry of significant magnitude made
    real and nonnegative, with ``v`` rotated to match) so repeated runs
    produce identical factors.

    Raises
    ------
    RankDeficient
        If ``r_max`` exceeds min(p, q) or the r_max-th singular value is
        at or below 1e-12 times the largest one.
    """
    if r_min < 1 or r_min > r_max:
        raise ValueError(f"need 1 <= r_min <= r_max, got ({r_min}, {r_max})")
    value = resp.value
    if np.iscomplexobj(value) and np.all(value.imag == 0.0):
        value = value.real
    if r_max > min(value.shape):
        raise RankDeficient(
            f"requested singular index {r_max} exceeds min(p, q) = {min(value.shape)}"
        )
    u, s, vh = np.linalg.svd(value)
    if s[0] == 0.0 or s[r_max - 1] <= RANK_FLOOR_RTOL * s[0]:
        raise RankDeficient(
            f"singular value {r_max} of the response is numerically zero "
            f"(sigma_{r_max}/sigma_1 = {0.0 if s[0] == 0 else s[r_max - 1] / s[0]:.2e})"
        )
    u = u[:, r_min - 1 : r_max].copy()
    sig = s[r_min - 1 : r_max].copy()
    v = vh.conj().T[:, r_min - 1 : r_max].copy()
    for i in range(u.shape[1]):
        col = u[:, i]
        lead = np.flatnonzero(np.abs(col) >= 1e-8)[0]
        phase = col[lead] / abs(col[lead])
        u[:, i] = np.conj(phase) * u[:, i]
        v[:, i] = np.conj(phase) * v[:, i]
    return InterpPoint(resp.omega, u, sig, v)


def _point_blocks(sys: StateSpace, pt: InterpPoint) -> _PointBlocks:
    """Per-point block matrices, with the real-paired stacking for w > 0."""
    rk = pt.rank
    res_denom = pt.u.conj().T
    res_numer = pt.sigma[:, None] * pt.v.conj().T
    rows = res_denom @ sys.C
    obs = resolvent_rows(sys, 1j * pt.omega, rows)
    if sys.is_real and pt.omega != 0.0:
        a = np.zeros((2 * rk, 2 * rk))
        a[:rk, rk:] = pt.omega * np.eye(rk)
        a[rk:, :rk] = -pt.omega * np.eye(rk)
        b_denom = np.vstack([res_denom.real, -res_denom.imag])
        b_numer = np.vstack([res_numer.real, -res_numer.imag])
        obs_rows = np.vstack([obs.real, -obs.imag])
    elif sys.is_real:
        # w = 0 of a real system: everything is already real.
        a = np.zeros((rk, rk))
        b_denom = np.ascontiguousarray(res_denom.real)
        b_numer = np.ascontiguousarray(res_numer.real)
        obs_rows = np.ascontiguousarray(obs.real)
    else:
        a = 1j * pt.omega * np.eye(rk)
        b_denom = res_denom.astype(np.complex128)
        b_numer = res_numer.astype(np.complex128)
        obs_rows = obs.astype(np.complex128)
    return _PointBlocks(a, b_denom, b_numer, obs_rows)


def _check_parent(data: InterpData, sys: StateSpace) -> None:
    if (sys.n, sys.p, sys.q) != (data.n, data.p, data.q):
        raise DimensionMismatch(
            f"system shape (n={sys.n}, p={sys.p}, q={sys.q}) does not match "
            f"interpolation data (n={data.n}, p={data.p}, q={data.q})"
        )
    if sys.scalar_field != data.scalar_field:
        raise DimensionMismatch(
            f"system scalar field {sys.scalar_field!r} does not match "
            f"data field {data.scalar_field!r}"
        )


def append_point(data: InterpData, sys: StateSpace, pt: InterpPoint) -> InterpData:
    """Add a new frequency's blocks to the interpolation data.

    Raises
    ------
    DuplicateFrequency
        If the frequency is already present (grow it with
        :func:`extend_point` instead).
    SingularResolvent
        If jw is numerically a pole of the parent system.
    """
    _check_parent(data, sys)
    if sys.is_real and pt.omega < 0.0:
        raise ValueError("real systems take nonnegative sample frequencies")
    if any(existing.omega == pt.omega for existing in data.points):
        raise DuplicateFrequency(f"frequency {pt.omega} is already interpolated")
    if pt.u.shape[0] != sys.p or pt.v.shape[0] != sys.q:
        raise DimensionMismatch(
            f"point factors sized ({pt.u.shape[0]}, {pt.v.shape[0]}) do not "
            f"match system I/O ({sys.p}, {sys.q})"
        )
    blk = _point_blocks(sys, pt)
    return InterpData(
        data.points + (pt,),
        data.blocks + (blk,),
        data.n,
        data.p,
        data.q,
        data.scalar_field,
    )


def extend_point(
    data: InterpData, sys: StateSpace, index: int, extra: InterpPoint
) -> InterpData:
    """Grow the rank of an existing point by appending further directions.

    ``extra`` must sample the same frequency and continue the singular
    indices of ``data.points[index]`` (its leading singular value may not
    exceed the existing trailing one).  The merged point's blocks are
    rebuilt contiguously, so the layout equals that of a point created at
    the combined rank directly; other points' blocks are shared.

    Raises
    ------
    IndexOutOfRange
        If ``index`` does not address an existing point.
    """
    _check_parent(data, sys)
    if not 0 <= index < len(data.points):
        raise IndexOutOfRange(
            f"point index {index} out of range (have {len(data.points)} points)"
        )
    old = data.points[index]
    if extra.omega != old.omega:
        raise ValueError(
            f"extension frequency {extra.omega} does not match point {index} "
            f"at {old.omega}"
        )
    merged = InterpPoint(
        old.omega,
        np.hstack([old.u, extra.u]),
        np.concatenate([old.sigma, extra.sigma]),
        np.hstack([old.v, extra.v]),
    )
    points = list(data.points)
    blocks = list(data.blocks)
    points[index] = merged
    blocks[index] = _point_blocks(sys, merged)
    return InterpData(points, blocks, data.n, data.p, data.q, data.scalar_field)


def realize_r(data: InterpData, W: np.ndarray, D: np.ndarray) -> StateSpace:
    """Assemble the reduced model for a given weight matrix.

    Parameters
    ----------
    data : InterpData
    W : numpy.ndarray
        p x total_order weight matrix; it becomes the output map of the
        reduced model.  A real W on real data yields a bitwise-real model.
    D : numpy.ndarray
        Feedthrough of the reduced model (normally the parent's D).

    Returns
    -------
    StateSpace
        Order ``data.total_order`` realization whose response matches the
        parent along every stored tangential direction, for any
        full-column-rank blockwise choice of W.
    """
    W = np.atleast_2d(np.asarray(W))
    D = np.atleast_2d(np.asarray(D))
    r = data.total_order
    if W.shape != (data.p, r):
        raise DimensionMismatch(
            f"W has shape {W.shape}, expected ({data.p}, {r})"
        )
    if D.shape != (data.p, data.q):
        raise DimensionMismatch(
            f"D has shape {D.shape}, expected ({data.p}, {data.q})"
        )
    complex_out = (
        data.scalar_field == "complex"
        or np.iscomplexobj(W)
        or np.iscomplexobj(D)
    )
    field = "complex" if complex_out else "real"
    A = data.A_nodes - data.B_denom @ W
    B = data.B_numer - data.B_denom @ D
    return StateSpace(A, B, W.copy(), D.copy(), scalar_field=field)


def realize_h(data: InterpData, sys: StateSpace) -> StateSpace:
    """Auxiliary error system with outputs stacking -C and the tangent rows.

    The system (A, B, [-C; tangent_obs], 0) maps inputs to the residual
    between the parent response premultiplied by the barycentric
    denominator and the numerator; its squared H2 norm under the weights
    [I  W] is exactly the objective minimized by the weight solver.
    """
    _check_parent(data, sys)
    dtype = np.float64 if sys.is_real else np.complex128
    C_h = np.vstack([-sys.C, data.tangent_obs.astype(dtype, copy=False)])
    return StateSpace(
        sys.A,
        sys.B,
        C_h,
        np.zeros((sys.p + data.total_order, sys.q), dtype=dtype),
        scalar_field=sys.scalar_field,
    )
