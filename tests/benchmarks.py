"""Desk-scale benchmark models for the slower end-to-end tests.

The flexible-structure model below stands in for the public ISS 1R module
benchmark (Chahlaoui & Van Dooren, 2002): 270 states as 135 lightly
damped modal pairs, 3 collocated inputs and outputs, natural frequencies
spread over two decades.  The distributed data files are not vendored
here, so the tests exercise the same regime on this seeded surrogate:
what matters for them is the structural character (many weakly coupled
resonances, fast Hankel decay), not the exact ISS numbers.
"""

from __future__ import annotations

import numpy as np

from tanmor import StateSpace

_PAIRS = 135
_SEED = 20260201


def flex_structure_model() -> StateSpace:
    """Seeded 270-state, 3x3 flexible-structure benchmark."""
    rng = np.random.default_rng(_SEED)
    freqs = np.geomspace(0.5, 95.0, _PAIRS)
    zetas = 10.0 ** rng.uniform(np.log10(2e-3), np.log10(1e-2), _PAIRS)
    # Modal participation shrinks with frequency, as in large space
    # structures: a handful of low modes carry most of the gain.
    gains = (1.0 + freqs / freqs[0]) ** -0.75

    n = 2 * _PAIRS
    A = np.zeros((n, n))
    B = np.zeros((n, 3))
    C = np.zeros((3, n))
    for k in range(_PAIRS):
        i = 2 * k
        w, z = freqs[k], zetas[k]
        A[i, i + 1] = w
        A[i + 1, i] = -w
        A[i + 1, i + 1] = -2.0 * z * w
        b = rng.standard_normal(3)
        c = rng.standard_normal(3)
        B[i + 1, :] = gains[k] * b
        C[:, i] = gains[k] * c
    return StateSpace(A, B, C, np.zeros((3, 3)))


def convection_diffusion(N: int, seed: int) -> StateSpace:
    """Seeded N^2-state, 3x3 convection-diffusion model on the unit square.

    A is the centred finite-difference matrix of LYAPACK's ``fdm_2d_matrix``
    (Penzl, 1999) for Laplace(u) - c u_x - c u_y on an N x N interior grid
    with Dirichlet boundary, mesh width h = 1/(N + 1) and convection
    c = 0.3 (N + 1), so the cell Peclet number c h / 2 stays at 0.15 for
    every N.  B (N^2 x 3) and C (3 x N^2) are standard Gaussian draws from
    ``seed``.  The parent is strictly stable and its Hankel values decay
    fast, so greedy reduced models have large output maps.
    """
    h = 1.0 / (N + 1)
    c = 0.3 * (N + 1)
    off = np.ones(N - 1)
    second = (np.diag(off, 1) + np.diag(off, -1) - 2.0 * np.eye(N)) / h**2
    first = (np.diag(off, 1) - np.diag(off, -1)) / (2.0 * h)
    line = second - c * first
    eye = np.eye(N)
    A = np.kron(eye, line) + np.kron(line, eye)
    rng = np.random.default_rng(seed)
    return StateSpace(A, rng.standard_normal((N * N, 3)), rng.standard_normal((3, N * N)))
