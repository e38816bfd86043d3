"""The LAPACK kernels: in-place eigenvalues of every Hamiltonian, and
eigenvectors of a Schur factor for the response evaluator."""

import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import tanmor._lapack as lapack
from tanmor.gramians import _hamiltonian, peak_gain
from tanmor.lti import _block_poles

from helpers import random_stable


def hamiltonian(field):
    g = random_stable(40, 3, 2, seed=71, field=field, feedthrough=True)
    return _hamiltonian(g, 2.0 * peak_gain(g).gain)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matches_numpy_eigvals(field):
    ham = hamiltonian(field)
    assert ham.flags.f_contiguous
    want = np.linalg.eigvals(ham)
    got = lapack.eigvals_overwrite(ham.copy(order="F"))
    assert got.dtype == np.complex128
    # The same xGEEV with the same workspace: LAPACK's order, and equal up
    # to what two builds of the library may differ by.
    npt.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("field", ["real", "complex"])
def test_overwrites_its_input(field):
    ham = hamiltonian(field)
    work = ham.copy(order="F")
    lapack.eigvals_overwrite(work)
    assert not np.array_equal(work, ham)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_non_finite_input_raises(field, bad):
    ham = hamiltonian(field)
    ham[3, 5] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        lapack.eigvals_overwrite(ham)


@pytest.mark.parametrize(
    "a",
    [
        np.eye(4),  # C-ordered
        np.asfortranarray(np.eye(4, dtype=np.float32)),
        np.asfortranarray(np.ones((3, 4))),
    ],
    ids=["c-order", "float32", "not-square"],
)
def test_refuses_arrays_it_cannot_solve_in_place(a):
    with pytest.raises(ValueError):
        lapack.eigvals_overwrite(a)


def test_order_zero():
    assert lapack.eigvals_overwrite(np.zeros((0, 0), order="F")).shape == (0,)


def test_signature_checked(monkeypatch):
    monkeypatch.setitem(lapack._SIGNATURES, "dgeev", "void (int *)")
    with pytest.raises(ImportError, match="dgeev has signature"):
        lapack._routine("dgeev", 14)


@pytest.mark.parametrize("name, nargs", [("dtrevc", 14), ("ztrevc", 15)])
def test_eigenvector_signature_checked(monkeypatch, name, nargs):
    monkeypatch.setitem(lapack._SIGNATURES, name, "void (int *)")
    with pytest.raises(ImportError, match=f"{name} has signature"):
        lapack._routine(name, nargs)


def test_python_thread_runs_during_the_solve():
    # With a switch interval far above the solve's time, a thread waiting
    # for the GIL gets it only when the holder lets go.  A counter thread
    # that yields every 1000 steps therefore advances by a few thousand at
    # most during a solve that keeps the GIL, and freely during one that
    # drops it.
    rng = np.random.default_rng(5)
    a = np.asfortranarray(rng.standard_normal((600, 600)))
    count, stop = 0, False

    def spin():
        nonlocal count
        while not stop:
            count += 1
            if count % 1000 == 0:
                time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    spinner = threading.Thread(target=spin)
    try:
        spinner.start()
        time.sleep(0.01)
        before = count
        lapack.eigvals_overwrite(a)
        during = count - before
    finally:
        stop = True
        spinner.join()
        sys.setswitchinterval(interval)
    assert during > 50_000


def schur_factor(field):
    """A 12 x 12 Schur factor: real with 2 x 2 blocks and real eigenvalues, or complex."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    if field == "complex":
        A = A + 1j * rng.standard_normal((12, 12))
    T = scipy.linalg.schur(A, output=field)[0]
    T.setflags(write=False)
    return T


@pytest.mark.parametrize("field", ["real", "complex"])
def test_schur_eigenvectors_match_eig(field):
    T = schur_factor(field)
    copy = T.copy()
    W = lapack.schur_eigenvectors(T)
    assert np.array_equal(T, copy)  # read-only input, left as it was
    assert W.dtype == T.dtype and W.flags.f_contiguous
    assert np.array_equal(np.triu(W), W)
    lam, X = _block_poles(T), W.astype(complex)
    if field == "real":
        pair = np.flatnonzero(np.diag(T, -1))
        assert 0 < 2 * pair.size < T.shape[0]  # 2 x 2 blocks and real eigenvalues
        X[:, pair] += 1j * W[:, pair + 1]
        X[:, pair + 1] = X[:, pair].conj()
    X /= np.linalg.norm(X, axis=0)
    assert np.linalg.norm(T @ X - X * lam) <= 1e-14 * np.linalg.norm(T)
    # eig's eigenvectors, up to the scaling of each column.
    lam_eig, X_eig = np.linalg.eig(T)
    match = [int(np.argmin(np.abs(lam_eig - x))) for x in lam]
    assert sorted(match) == list(range(T.shape[0]))
    npt.assert_allclose(np.abs(np.sum(X.conj() * X_eig[:, match], axis=0)), 1.0, rtol=1e-12)


@pytest.mark.parametrize(
    "t",
    [
        np.eye(4),  # C-ordered
        np.asfortranarray(np.eye(4, dtype=np.float32)),
        np.asfortranarray(np.ones((3, 4))),
    ],
    ids=["c-order", "float32", "not-square"],
)
def test_schur_eigenvectors_refuses_what_it_cannot_solve(t):
    with pytest.raises(ValueError):
        lapack.schur_eigenvectors(t)


def test_schur_eigenvectors_order_zero():
    assert lapack.schur_eigenvectors(np.zeros((0, 0), order="F")).shape == (0, 0)
