"""tanmor benchmark: one workload per invocation, closed loop, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flex-maxerr --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``flex-maxerr``,
``flex-random``, ``mixed-complex`` and ``cli-sweep``.

The workload runs in a child process with the BLAS thread count fixed, from
the checkout's ``src`` (nothing is installed or built).  Four more short-lived
children time the set-up alone, so ``setup_s`` is a median of five.  Every
operation's output is checked; failed checks are printed with their causes.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(see ``tracing.py``), and the spans are written to
``.perfbench_work/spans-<workload>.jsonl``.  Exit status is 0 only when the
workload ran; outputs that fail their checks set ``correct`` to false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Same names as workloads.WORKLOADS; this process does not import tanmor.
WORKLOADS = ("flex-maxerr", "flex-random", "mixed-complex", "cli-sweep")
# One BLAS thread: the two-core box runs flex-maxerr faster with one thread
# than with two (17 s against 21 s), and results are deterministic at a fixed
# thread count.
BLAS_THREADS = 1
# glibc adapts its mmap threshold to the allocation history, so the banded
# solves' temporary copies were served either from the heap or from fresh
# mmaps depending on the process: flex-random operations took 1.35 s or
# 2.95 s (28k against 660k page faults) on the same inputs.  A fixed
# threshold above those sizes, with heap trimming off, removes the switch.
# Page faults from that allocation churn are therefore not in the timings.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "268435456"}
SETUP_SAMPLES = 5
# Each invocation must end within this many seconds.
TIME_LIMIT_S = 170.0
TAIL_SAMPLES = 10


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.update(MALLOC_ENV)
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON of its last output line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--budget", str(max(1.0, deadline - time.monotonic() - 30.0)),
        "--workdir", str(args.workdir), *extra,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it.

    Returns (value, percentile, sample count).  With too few samples for
    any such percentile, the minimum is returned at percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_SAMPLES  # samples at or below the reported value
    if k < 1:
        return xs[0], 0.0, n
    return xs[k - 1], 100.0 * k / n, n


def run_record(args, seeds: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tanmor").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "malloc_env": MALLOC_ENV,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seeds": seeds,
    }


def end_to_end(setups: list[float], payload: dict) -> tuple[dict, list[str]]:
    # solve_s is the mean operation time over the whole measured run (its total
    # operation time over the operation count), not the median operation.  The
    # shared host alternates between a fast phase and one 1.3-1.8x slower, in
    # stretches of one to several tens of seconds; when a run spends about half
    # its time in each, the median operation lands in either phase, while the
    # mean moves only with the share of slow time.
    ops = payload["ops"]
    rows = [s for op in ops for s in op["row_seconds"]]
    rels = [op["rel_h2_error"] for op in ops if math.isfinite(op["rel_h2_error"])]
    tail_s, tail_pct, tail_n = tail(rows)
    metrics = {
        "solve_s": (statistics.fmean(op["seconds"] for op in ops), "s"),
        "iter_s_tail": (tail_s, "s"),
        "peak_rss_mb": (payload["peak_rss_mb"], "MB"),
        "rel_h2_error": (statistics.median(rels) if rels else math.nan, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"solve_s: mean of {len(ops)} operations",
        f"iter_s_tail: p{tail_pct:.1f} of {tail_n} pooled TraceRow.seconds",
        f"rel_h2_error: median of {len(rels)} operations",
        f"setup_s: median of {len(setups)} set-ups",
    ]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.seed < 0:
        return fail("--seed must be nonnegative")
    for needed in (ROOT / "src" / "tanmor" / "__init__.py", ROOT / "tests" / "benchmarks.py"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found; run from a tanmor checkout")
    args.workdir = ROOT / ".perfbench_work"
    args.workdir.mkdir(exist_ok=True)

    try:
        setups = [
            run_worker(args, ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        payload = run_worker(args, ["--trace"] if args.trace else [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    setups.append(payload["setup_s"])

    record = run_record(args, payload["seeds"])
    (args.workdir / f"record-{args.workload}.json").write_text(json.dumps(record, indent=2))
    print("run record: " + json.dumps(record, sort_keys=True))

    ops = payload["ops"]
    failures = [(i, f) for i, op in enumerate(ops) for f in op["failures"]]
    failed = len({i for i, _ in failures})
    for i, cause in failures:
        print(f"FAILED operation {i}: {cause}")
    print(f"{args.workload} failed_frac = {failed}/{len(ops)} = {failed / len(ops):.4g}")

    if args.trace:
        metrics = payload["layers"]
    else:
        metrics, notes = end_to_end(setups, payload)
        for note in notes:
            print(f"{args.workload} {note}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
