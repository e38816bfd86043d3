"""The in-place LAPACK eigenvalue kernel that solves every Hamiltonian."""

import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

import tanmor._lapack as lapack
from tanmor.gramians import _hamiltonian, peak_gain

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
