"""Release gate: eleven end-to-end checks, one printed verdict line each.

Every test here drives the library the way a user would and asserts a
quantitative band the package promises. Tolerances are fixed, not tuned
per run. The two benchmark-scale checks near the end share one greedy
trace through module fixtures so the whole file stays within a few
minutes of wall time.
"""

import numpy as np
import pytest

from tanmor import (
    InterpData,
    ReducerConfig,
    SelectionStrategy,
    StateSpace,
    balanced_truncation,
    controllability_gramian,
    error_norm,
    eval_tf,
    freq_sweep,
    h2_norm_sq,
    peak_gain,
    realize_h,
    reduce,
    series_sub,
)
from tanmor.cli import run_cli
from tanmor.interpolation import append_point, truncated_point
from tanmor.modelio import save_model
from tanmor.weights import solve_weights

from benchmarks import flex_structure_model
from helpers import h2_sq_quadrature, modal_stable, random_stable

BENCH_ORDERS = (8, 16, 24, 32, 40)


def announce(capsys, label, detail):
    """Print the verdict line outside pytest's capture."""
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS ({detail})")


def sampled_data(sys, omegas, rank=1):
    data = InterpData.empty(sys)
    for resp in freq_sweep(sys, omegas):
        data = append_point(data, sys, truncated_point(resp, 1, rank))
    return data


def diag_minimal_complex(n, p, q, seed):
    """Diagonal complex system: distinct poles, dense B and C, so the
    minimal order is exactly n."""
    rng = np.random.default_rng(seed)
    poles = -rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-8.0, 8.0, n)
    B = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return StateSpace(np.diag(poles), B, C, np.zeros((p, q)), scalar_field="complex")


@pytest.fixture(scope="module")
def bench_sys():
    return flex_structure_model()


@pytest.fixture(scope="module")
def bench_trace(bench_sys):
    cfg = ReducerConfig(
        SelectionStrategy.max_error(),
        max_order=40,
        rho=0.999,
        gamma_rel_tol=1e-300,
        max_iters=100,
        track_error=True,
    )
    return reduce(bench_sys, cfg)


def test_01_interpolation_identity_every_iteration(capsys):
    """Each snapshot model matches the parent along its tangential data.

    The band and merge window are chosen the way a user would for this
    family: draws cover the parents' active range (poles sit between
    roughly 0.5 and 12 in magnitude), and proposals within 2 percent of
    an existing node merge into it. Sampling far below the lowest pole
    gives near-redundant data rows whatever the merge rule does, and the
    resulting weight blowup makes the snapshot unevaluable in double
    precision; that is a property of degenerate sampling, not of the
    interpolation construction.
    """
    rng = np.random.default_rng(101)
    worst = 0.0
    runs = 0
    for idx in range(50):
        n = int(rng.integers(6, 31))
        sys = random_stable(n, 3, 3, seed=1000 + idx)
        strategies = (
            SelectionStrategy.max_error(),
            SelectionStrategy.discrete(omega_min=0.3, omega_max=30.0, K=100),
            SelectionStrategy.random(omega_min=0.3, omega_max=30.0, K=100, seed=idx),
        )
        for strategy in strategies:
            cfg = ReducerConfig(
                strategy,
                max_order=max(4, n // 3),
                mu=0.02,
                gamma_rel_tol=1e-10,
                max_iters=8,
                track_error=False,
            )
            trace = reduce(sys, cfg)
            runs += 1
            for row in trace.rows:
                for pt in row.data.points:
                    diff = eval_tf(row.model, 1j * pt.omega) - eval_tf(
                        sys, 1j * pt.omega
                    )
                    resid = np.linalg.norm(pt.u.conj().T @ diff, "fro")
                    bound = 1e-8 * (1.0 + np.linalg.norm(pt.sigma))
                    worst = max(worst, resid / bound)
                    assert resid <= bound, (
                        f"seed {idx} {strategy.kind.value} iter {row.iteration}: "
                        f"residual {resid:.3e} exceeds {bound:.3e}"
                    )
    announce(
        capsys,
        "01 interpolation-identity",
        f"{runs} runs, worst residual at {worst:.1e} of the 1e-8 band",
    )


def test_02_starting_objective_identity(capsys):
    """gamma0 equals tr(C Theta C*), which equals the response integral."""
    cases = [
        random_stable(6, 2, 3, seed=201),
        random_stable(9, 3, 3, seed=202, feedthrough=True),
        random_stable(5, 2, 2, seed=203, field="complex"),
        random_stable(7, 3, 2, seed=204, field="complex", feedthrough=True),
        random_stable(12, 3, 3, seed=205),
        modal_stable(3, 2, 2, seed=206),
        modal_stable(5, 3, 3, seed=207),
        diag_minimal_complex(6, 2, 2, seed=208),
    ]
    worst_alg = 0.0
    worst_quad = 0.0
    for sys in cases:
        theta = controllability_gramian(sys)
        base = solve_weights(sys, theta, InterpData.empty(sys))
        tr = float(np.trace(sys.C @ theta.theta @ sys.C.conj().T).real)
        worst_alg = max(worst_alg, abs(base.gamma - tr) / tr)
        assert abs(base.gamma - tr) <= 1e-12 * tr
        quad = h2_sq_quadrature(sys, rtol=1e-9)
        worst_quad = max(worst_quad, abs(tr - quad) / quad)
        assert abs(tr - quad) <= 1e-4 * quad
    announce(
        capsys,
        "02 starting-objective",
        f"{len(cases)} systems, algebraic gap {worst_alg:.1e}, "
        f"quadrature gap {worst_quad:.1e}",
    )


def test_03_objective_never_increases(capsys):
    """The objective is computed as a least-squares residual, so its
    monotonicity can only be observed while the data rows stay well
    conditioned; the modal parent keeps them that way for all 15
    iterations (see the recovery test below for the same reasoning)."""
    sys = modal_stable(20, 3, 3, seed=7)
    worst_jump = -np.inf
    for seed in range(50):
        cfg = ReducerConfig(
            SelectionStrategy.random(omega_min=1e-2, omega_max=1e2, K=100, seed=seed),
            max_order=60,
            mu=0.02,
            gamma_rel_tol=1e-300,
            max_iters=15,
            track_error=False,
        )
        trace = reduce(sys, cfg)
        values = [trace.gamma0] + [row.gamma for row in trace.rows]
        for prev, cur in zip(values, values[1:]):
            worst_jump = max(worst_jump, (cur - prev) / trace.gamma0)
            assert cur - prev <= 1e-10 * trace.gamma0, (
                f"seed {seed}: gamma rose by {(cur - prev) / trace.gamma0:.3e} "
                "of gamma0"
            )
    announce(
        capsys,
        "03 monotone-objective",
        f"50 runs x 15 iterations, largest relative jump {worst_jump:.1e}",
    )


def test_04_exact_recovery_at_minimal_order(capsys):
    """Once the data holds as many rows as the parent has states, the
    reduced model is the parent.

    The recovered realization solves an interpolation system whose
    conditioning tracks the parent's smallest Hankel value, so the modal
    family (slow Hankel decay) is the honest probe here; the H2 error is
    integrated directly because a Lyapunov solve on the near-cancelling
    difference system cannot resolve values this small.
    """
    worst_gamma = 0.0
    worst_err = 0.0
    runs = 0
    for pairs in (2, 3, 4):
        n = 2 * pairs
        for seed in range(3):
            sys = modal_stable(pairs, 2, 2, seed=40 + 10 * pairs + seed)
            cfg = ReducerConfig(
                SelectionStrategy.max_error(),
                max_order=n,
                gamma_rel_tol=1e-300,
                max_iters=40,
                track_error=False,
            )
            trace = reduce(sys, cfg)
            runs += 1
            assert trace.data.total_order == n
            gamma_ratio = trace.final_gamma / trace.gamma0
            worst_gamma = max(worst_gamma, gamma_ratio)
            assert gamma_ratio <= 1e-8
            err_sq = h2_sq_quadrature(series_sub(sys, trace.model), rtol=1e-8)
            rel = np.sqrt(max(err_sq, 0.0) / h2_norm_sq(sys))
            worst_err = max(worst_err, rel)
            assert rel <= 1e-6, f"order {n} seed {seed}: relative error {rel:.3e}"
    announce(
        capsys,
        "04 exact-recovery",
        f"{runs} runs over orders 4/6/8, worst gamma ratio {worst_gamma:.1e}, "
        f"worst relative H2 error {worst_err:.1e}",
    )


def test_05_error_system_matches_block_formula(capsys):
    """realize_h agrees with evaluating N(s) - M(s) G(s) from scratch."""
    worst = 0.0
    for idx in range(20):
        field = "real" if idx < 10 else "complex"
        rng = np.random.default_rng(300 + idx)
        sys = random_stable(
            5 + idx % 4,
            2,
            3,
            seed=300 + idx,
            field=field,
            feedthrough=(idx % 3 == 0),
        )
        omegas = np.geomspace(0.4, 9.0, 3) * rng.uniform(0.9, 1.1, 3)
        data = sampled_data(sys, omegas, rank=1 + idx % 2)
        h = realize_h(data, sys)
        eye_p = np.eye(sys.p)
        for w in rng.uniform(-40.0, 40.0, 50):
            phi = np.linalg.solve(
                1j * w * np.eye(data.total_order) - data.A_nodes,
                np.hstack([data.B_denom, data.B_numer]),
            )
            m_blk = np.vstack([eye_p, phi[:, : sys.p]])
            n_blk = np.vstack([sys.D, phi[:, sys.p :]])
            ref = n_blk - m_blk @ eval_tf(sys, 1j * w)
            diff = np.linalg.norm(eval_tf(h, 1j * w) - ref, "fro")
            rel = diff / np.linalg.norm(ref, "fro")
            worst = max(worst, rel)
            assert rel <= 1e-9, f"system {idx}, omega {w:.3f}: gap {rel:.3e}"
    announce(
        capsys,
        "05 error-realization",
        f"20 systems x 50 frequencies, worst relative gap {worst:.1e}",
    )


def test_06_row_rank_follows_minimal_order(capsys):
    """Tangential rows stay independent up to the minimal order, then the
    numerical rank saturates there."""
    worst_small = np.inf
    for idx in range(20):
        n = 5 + idx % 4
        sys = diag_minimal_complex(n, 3, 3, seed=400 + idx)
        rng = np.random.default_rng(4000 + idx)
        for r in (max(2, n // 2), n):
            omegas = np.geomspace(0.3, 15.0, r) * rng.uniform(0.9, 1.1, r)
            data = sampled_data(sys, omegas)
            s = np.linalg.svd(data.tangent_obs, compute_uv=False)
            ratio = s[-1] / s[0]
            worst_small = min(worst_small, ratio)
            assert ratio > 1e-8, f"n={n} r={r}: sigma ratio {ratio:.3e}"
        omegas = np.geomspace(0.3, 15.0, n + 3) * rng.uniform(0.9, 1.1, n + 3)
        over = sampled_data(sys, omegas)
        s = np.linalg.svd(over.tangent_obs, compute_uv=False)
        numrank = int(np.sum(s > 1e-8 * s[0]))
        assert numrank == n, f"n={n}: overdetermined rank {numrank}"
    announce(
        capsys,
        "06 rank-law",
        f"20 systems, smallest in-range sigma ratio {worst_small:.1e}",
    )


def eig_grid_max(sys, num=100_000):
    """Independent dense-grid peak: eigendecomposition response evaluator,
    batched SVD, no shared code with peak_gain."""
    lam, V = np.linalg.eig(sys.A)
    CV = sys.C @ V
    VB = np.linalg.solve(V, sys.B)
    mags = np.abs(lam)
    nz = mags[mags > 0]
    lo = 1e-3 * float(nz.min()) if nz.size else 1e-3
    hi = 1e3 * max(1.0, float(mags.max()))
    grid = np.concatenate([[1e-9], np.geomspace(lo, hi, num)])
    if not sys.is_real:
        grid = np.concatenate([-grid[::-1], grid])
    resolvent = 1.0 / (1j * grid[:, None] - lam[None, :])
    resp = np.einsum("pn,wn,nq->wpq", CV, resolvent, VB) + sys.D
    return float(np.linalg.svd(resp, compute_uv=False)[:, 0].max())


def test_07_gramian_residuals_and_peak_gain(capsys):
    worst_resid = 0.0
    worst_gap = 0.0
    for idx in range(20):
        field = "complex" if idx % 4 == 3 else "real"
        sys = random_stable(4 + idx % 7, 3, 3, seed=500 + idx, field=field)
        result = controllability_gramian(sys)
        scale = np.linalg.norm(sys.B @ sys.B.conj().T, "fro")
        worst_resid = max(worst_resid, result.residual / scale)
        assert result.residual <= 1e-8 * scale
        gain = peak_gain(sys, rtol=1e-6).gain
        grid_max = eig_grid_max(sys)
        assert grid_max <= 1.01 * gain, (
            f"system {idx}: grid {grid_max:.6e} above gain {gain:.6e}"
        )
        assert gain <= 1.01 * grid_max, (
            f"system {idx}: gain {gain:.6e} above grid {grid_max:.6e}"
        )
        worst_gap = max(worst_gap, abs(gain - grid_max) / gain)
    announce(
        capsys,
        "07 gramian-and-peak",
        f"20 systems, worst Lyapunov residual {worst_resid:.1e}, "
        f"worst grid gap {worst_gap:.1e}",
    )


def test_08_real_parents_keep_real_storage(capsys):
    """Real inputs must never leak complex dtype into any produced matrix."""
    checked = 0
    for seed in range(6):
        sys = random_stable(12, 3, 3, seed=600 + seed)
        strategies = (
            SelectionStrategy.max_error(),
            SelectionStrategy.random(K=60, seed=seed),
        )
        for strategy in strategies:
            cfg = ReducerConfig(
                strategy,
                max_order=8,
                gamma_rel_tol=1e-12,
                max_iters=6,
                track_error=False,
            )
            trace = reduce(sys, cfg)
            assert not np.iscomplexobj(trace.weights)
            for row in trace.rows:
                data = row.data
                for arr in (
                    data.A_nodes,
                    data.B_denom,
                    data.B_numer,
                    data.tangent_obs,
                    row.model.A,
                    row.model.B,
                    row.model.C,
                    row.model.D,
                ):
                    assert not np.iscomplexobj(arr)
                    checked += 1
    announce(capsys, "08 real-storage", f"{checked} matrices, all real dtype")


def test_09_benchmark_tracks_balanced_truncation(capsys, bench_sys, bench_trace):
    """On the 270-state flexible-structure benchmark the greedy errors stay
    within a factor of 10 of balanced truncation and decrease with order."""
    ratios = []
    errs = []
    for order in BENCH_ORDERS:
        row = bench_trace.row_at_order(order)
        assert row is not None and row.order == order
        bt_err = error_norm(bench_sys, balanced_truncation(bench_sys, order))
        assert not bt_err.approximate
        ratios.append(row.error_norm / bt_err.value)
        errs.append(row.error_norm)
        assert row.error_norm <= 10.0 * bt_err.value, (
            f"order {order}: greedy {row.error_norm:.3e} vs "
            f"balanced {bt_err.value:.3e}"
        )
    for a, b in zip(errs, errs[1:]):
        assert b < a, f"error did not decrease: {errs}"
    announce(
        capsys,
        "09 benchmark-vs-balanced",
        "ratios at orders 8..40: " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_10_strategy_agreement_bands(capsys, bench_sys, bench_trace):
    """Grid and random selection land near the adaptive strategy's error."""
    ref = bench_trace.row_at_order(24).error_norm

    def run(strategy):
        cfg = ReducerConfig(
            strategy,
            max_order=24,
            rho=0.999,
            gamma_rel_tol=1e-300,
            max_iters=60,
            track_error=False,
        )
        trace = reduce(bench_sys, cfg)
        return error_norm(bench_sys, trace.model).value

    disc = run(SelectionStrategy.discrete(omega_min=1e-1, omega_max=1e2, K=200))
    assert disc <= 2.0 * ref, f"discrete {disc:.3e} vs adaptive {ref:.3e}"

    finals = [
        run(SelectionStrategy.random(omega_min=1e-1, omega_max=1e2, K=100, seed=s))
        for s in range(100)
    ]
    med = float(np.median(finals))
    assert med <= 2.0 * ref, f"random median {med:.3e} vs adaptive {ref:.3e}"
    announce(
        capsys,
        "10 strategy-bands",
        f"discrete/adaptive {disc / ref:.2f}, random median/adaptive {med / ref:.2f}",
    )


def test_11_cli_byte_determinism(capsys, tmp_path):
    sys = modal_stable(3, 2, 2, seed=21)
    save_model(sys, tmp_path / "plant.txt")

    def args(out):
        return [
            "reduce",
            "--model",
            str(tmp_path / "plant.txt"),
            "--strategy",
            "random",
            "--seed",
            "11",
            "--K",
            "50",
            "--max-order",
            "6",
            "--out",
            str(tmp_path / out),
        ]

    assert run_cli(args("one")) == 0
    assert run_cli(args("two")) == 0
    first = (tmp_path / "one.trace.csv").read_bytes()
    second = (tmp_path / "two.trace.csv").read_bytes()
    assert first == second
    assert (tmp_path / "one.model.txt").read_bytes() == (
        tmp_path / "two.model.txt"
    ).read_bytes()
    announce(
        capsys,
        "11 cli-determinism",
        f"two identical runs, {len(first)} trace bytes equal",
    )
