"""The benchmark's workloads: inputs made from the seed, one operation, output checks.

Each workload object is built once per process (that is the set-up the
benchmark times) and then runs operations back to back.  An operation is one
``reduce`` call on a fresh copy of the parent, or one ``run_cli`` invocation
for ``cli-sweep``.  Fresh copies keep tanmor's per-system caches from
carrying over, so every operation costs what a user's single call costs.

Every operation is checked; a failed check is recorded with its cause and
counts towards the failed fraction.  No workload is re-seeded or resized to
avoid a failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import time

import numpy as np

import tanmor
import tanmor.cli

# Spectrum of the mixed-stability parent.  The benchmark seed only changes
# its realization (a unitary change of state coordinates), which leaves the
# transfer function alone: with the spectrum drawn from the seed instead,
# rel_h2_error ranged 0.22-0.69 over seeds 0-4, far wider than any bound.
MIXED_SPECTRUM_SEED = 7

# Band of the interpolation identity, as in acceptance test 01.
IDENTITY_RTOL = 1e-8
# Largest allowed rise of gamma between iterations, as in acceptance test 03.
GAMMA_RISE_RTOL = 1e-10


@dataclasses.dataclass
class Outcome:
    """What one operation produced, and what its checks found."""

    seconds: float
    row_seconds: list[float]
    rel_h2_error: float
    failures: list[str]


class Clock:
    """Context manager that times the operation inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = math.nan

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False
        return False


def derived_seed(seed: int, index: int) -> int:
    """Per-operation seed drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def fresh_copy(sys: tanmor.StateSpace) -> tanmor.StateSpace:
    return tanmor.StateSpace(sys.A, sys.B, sys.C, sys.D, scalar_field=sys.scalar_field)


def raw_h2_trace(sys: tanmor.StateSpace) -> float:
    """trace(C Theta C*) without the clipping at zero that h2_norm_sq applies."""
    theta = tanmor.controllability_gramian(sys).theta
    return float(np.real(np.trace(sys.C @ theta @ sys.C.conj().T)))


class H2Reference:
    """Relative H2 error against one parent, from raw Gramian traces."""

    def __init__(self, parent: tanmor.StateSpace):
        self.parent = parent
        self._parent_sq = None

    def rel_error(self, model, failures: list[str]) -> float:
        """||G - R||_H2 / ||G||_H2; NaN, with a recorded failure, if untrustworthy."""
        if self._parent_sq is None:
            self._parent_sq = raw_h2_trace(self.parent)
        try:
            err_sq = raw_h2_trace(tanmor.series_sub(self.parent, model))
        except tanmor.TanmorError as exc:
            failures.append(f"error Gramian failed: {type(exc).__name__}: {exc}")
            return math.nan
        if not (math.isfinite(err_sq) and err_sq >= 0.0 and self._parent_sq > 0.0):
            failures.append(
                f"raw H2 trace not usable: error {err_sq:.6g}, parent {self._parent_sq:.6g}"
            )
            return math.nan
        return math.sqrt(err_sq / self._parent_sq)


def check_trace(g, trace, max_order: int, failures: list[str]) -> None:
    """Stop reason, order budget, monotone gamma and the interpolation identity."""
    if trace.stop_reason.startswith("halted"):
        failures.append(f"stop_reason {trace.stop_reason}")
    if trace.model.n > max_order:
        failures.append(f"order {trace.model.n} exceeds budget {max_order}")
    gammas = [trace.gamma0] + [row.gamma for row in trace.rows]
    for it, (prev, cur) in enumerate(zip(gammas, gammas[1:]), start=1):
        if cur - prev > GAMMA_RISE_RTOL * trace.gamma0:
            failures.append(
                f"gamma rose by {(cur - prev) / trace.gamma0:.3e} of gamma0 at iteration {it}"
            )
            break
    for pt in trace.data.points:
        s = 1j * pt.omega
        diff = tanmor.eval_tf(trace.model, s) - tanmor.eval_tf(g, s)
        resid = float(np.linalg.norm(pt.u.conj().T @ diff, "fro"))
        bound = IDENTITY_RTOL * (1.0 + float(np.linalg.norm(pt.sigma)))
        if not resid <= bound:
            failures.append(
                f"interpolation identity at omega={pt.omega:.6g}: "
                f"residual {resid:.3e} > {bound:.3e}"
            )


class LibraryWorkload:
    """One ``reduce`` call per operation on a parent built in set-up."""

    name = ""
    min_ops = 1

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.parent = self.build_parent()
        self.reference = H2Reference(self.parent)

    def build_parent(self) -> tanmor.StateSpace:
        """The fixed flex-270 surrogate, so numbers line up with test_09/test_10."""
        from benchmarks import flex_structure_model

        return flex_structure_model()

    def config(self, index: int) -> tanmor.ReducerConfig:
        raise NotImplementedError

    def seeds(self) -> dict:
        return {"benchmark": self.seed}

    def run(self, index: int, clock: Clock, warm: bool = False) -> Outcome:
        cfg = self.config(index)
        if warm:
            cfg = dataclasses.replace(cfg, max_iters=1)
        parent = fresh_copy(self.parent)
        with clock:
            trace = tanmor.reduce(parent, cfg)
        failures: list[str] = []
        if warm:
            return Outcome(clock.seconds, [], math.nan, failures)
        check_trace(parent, trace, cfg.max_order, failures)
        rel = self.reference.rel_error(trace.model, failures)
        return Outcome(clock.seconds, [row.seconds for row in trace.rows], rel, failures)


class FlexMaxError(LibraryWorkload):
    # The only workload where peak_gain on G - R is hot.
    name = "flex-maxerr"
    # One operation has only 12 iterations; two give iter_s_tail 24 samples
    # and solve_s a second sample.
    min_ops = 2

    def config(self, index):
        return tanmor.ReducerConfig(
            tanmor.SelectionStrategy.max_error(),
            max_order=24,
            rho=0.999,
            gamma_rel_tol=1e-300,
            max_iters=100,
            track_error=True,
        )


class FlexRandom(LibraryWorkload):
    # Fresh frequencies every iteration, so nothing can be reused; the parent
    # frequency sweep dominates and error tracking is off.
    name = "flex-random"

    def config(self, index):
        return tanmor.ReducerConfig(
            tanmor.SelectionStrategy.random(
                omega_min=1e-1, omega_max=1e2, K=100, seed=derived_seed(self.seed, index)
            ),
            max_order=24,
            rho=0.999,
            gamma_rel_tol=1e-300,
            max_iters=60,
            track_error=False,
        )

    def seeds(self):
        return {
            "benchmark": self.seed,
            "strategy": "SeedSequence([benchmark, operation index])",
            "strategy_first_ops": [derived_seed(self.seed, i) for i in range(8)],
        }


class MixedComplex(LibraryWorkload):
    # Every snapshot is unstable, so error_norm takes the trapezoid fallback;
    # also exercises the separated Gramian and complex storage.
    name = "mixed-complex"

    def build_parent(self):
        from helpers import random_mixed

        base = random_mixed(100, 40, 3, 3, seed=MIXED_SPECTRUM_SEED, field="complex")
        rng = np.random.default_rng(self.seed)
        n = base.n
        U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        Uh = U.conj().T
        return tanmor.StateSpace(
            U @ base.A @ Uh, U @ base.B, base.C @ Uh, base.D, scalar_field="complex"
        )

    def config(self, index):
        return tanmor.ReducerConfig(
            tanmor.SelectionStrategy.discrete(omega_min=1e-2, omega_max=1e2, K=200),
            max_order=24,
            track_error=True,
        )

    def seeds(self):
        return {
            "benchmark": self.seed,
            "mixed_spectrum": MIXED_SPECTRUM_SEED,
            "mixed_realization": self.seed,
        }


@contextlib.contextmanager
def capture_reduce(traces: list):
    """Collect the trace of every reduce call the CLI makes, without altering it."""
    import tanmor.reduction

    owners = (tanmor.cli, tanmor.reduction)
    saved = [owner.reduce for owner in owners]

    def capturing(inner):
        def reduce(*args, **kwargs):
            trace = inner(*args, **kwargs)
            traces.append(trace)
            return trace

        return reduce

    for owner, inner in zip(owners, saved):
        owner.reduce = capturing(inner)
    try:
        yield
    finally:
        for owner, inner in zip(owners, saved):
            owner.reduce = inner


class CliSweep:
    # The only workload that exercises modelio, cli, sweep_orders and
    # balanced_truncation.  Its output files must be byte-identical across
    # operations, so no --timings.
    name = "cli-sweep"
    min_ops = 2  # the byte-identity check needs a second operation
    max_order = 24
    orders = (8, 16, 24)
    suffixes = ("trace.csv", "model.txt", "compare.csv", "report.json")

    def __init__(self, seed: int, workdir: pathlib.Path):
        from benchmarks import flex_structure_model

        self.seed = seed
        self.parent = flex_structure_model()
        self.model_path = workdir / "flex270.txt"
        tanmor.save_model(self.parent, self.model_path, format="dense")
        self.prefix = workdir / "cli-sweep"
        self.digests: dict[str, str] | None = None
        self.reference = H2Reference(self.parent)

    def seeds(self):
        return {"benchmark": self.seed, "note": "fixed surrogate and grid; seed unused"}

    def argv(self, warm: bool) -> list[str]:
        argv = [
            "reduce", "--model", str(self.model_path),
            "--strategy", "discrete", "--omega-min", "0.1", "--omega-max", "100",
            "--K", "200", "--max-order", str(self.max_order),
            "--orders", ",".join(str(k) for k in self.orders),
            "--baseline", "balanced", "--out", str(self.prefix),
        ]
        return argv + ["--max-iters", "1"] if warm else argv

    def run(self, index: int, clock: Clock, warm: bool = False) -> Outcome:
        traces: list = []
        with capture_reduce(traces), contextlib.redirect_stdout(io.StringIO()):
            with clock:
                rc = tanmor.cli.run_cli(self.argv(warm))
        failures: list[str] = []
        if warm:
            return Outcome(clock.seconds, [], math.nan, failures)
        rows = [row.seconds for trace in traces for row in trace.rows]
        if rc != 0:
            failures.append(f"run_cli exited {rc}")
            return Outcome(clock.seconds, rows, math.nan, failures)

        paths = {s: self.prefix.with_name(f"{self.prefix.name}.{s}") for s in self.suffixes}
        digests = {s: hashlib.sha256(p.read_bytes()).hexdigest() for s, p in paths.items()}
        if self.digests is None:
            self.digests = digests
        changed = sorted(s for s in self.suffixes if digests[s] != self.digests[s])
        if changed:
            failures.append("output bytes differ from the first operation: " + ", ".join(changed))

        report = json.loads(paths["report.json"].read_text())
        if str(report["stop_reason"]).startswith("halted"):
            failures.append(f"stop_reason {report['stop_reason']}")
        if report["order"] > self.max_order:
            failures.append(f"order {report['order']} exceeds budget {self.max_order}")
        compare = paths["compare.csv"].read_text().splitlines()[1:]
        got_orders = [int(line.split(",")[0]) for line in compare]
        if got_orders != list(self.orders):
            failures.append(f"compare.csv orders {got_orders}")
        for line in compare:
            fields = line.split(",")
            if not (math.isfinite(float(fields[2])) and math.isfinite(float(fields[4]))):
                failures.append(f"compare.csv row not finite: {line}")

        check_trace(self.parent, traces[0], self.max_order, failures)
        model = tanmor.load_model(paths["model.txt"])
        if model.n != report["order"]:
            failures.append(f"model file order {model.n} != report order {report['order']}")
        rel = self.reference.rel_error(model, failures)
        return Outcome(clock.seconds, rows, rel, failures)


WORKLOADS = {w.name: w for w in (FlexMaxError, FlexRandom, MixedComplex, CliSweep)}
