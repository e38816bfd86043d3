"""Run one workload in this process and print its measurements as one JSON line.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``--setup-only``: time the set-up (import tanmor, build or load the
  parent) and exit.
* default: set up, run one short warm-up operation, then run operations
  back to back (a closed loop with one client) until the next one would end
  after ``--seconds``, and at least the workload's minimum count.
* ``--trace``: set up, warm up, run one untraced operation, then the same
  operation twice with tracing on.  The two traced runs must give identical
  call counts and n^3 sums.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

T_START = time.perf_counter()

import workloads  # noqa: E402  (imports tanmor; its cost is part of set-up)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def emit(payload: dict) -> None:
    print(json.dumps(payload))


def outcome_dict(o: workloads.Outcome) -> dict:
    return {
        "seconds": o.seconds,
        "row_seconds": o.row_seconds,
        "rel_h2_error": o.rel_h2_error,
        "failures": o.failures,
    }


def measured_loop(wl, seconds: float, budget: float) -> list[workloads.Outcome]:
    start = time.perf_counter()
    outcomes = []
    while True:
        t0 = time.perf_counter()
        outcomes.append(wl.run(len(outcomes), workloads.Clock()))
        now = time.perf_counter()
        step = now - t0
        if len(outcomes) >= wl.min_ops and now - start + step > seconds:
            break
        if now - start + step > budget:
            break
    return outcomes


def traced_runs(wl, workdir: pathlib.Path) -> tuple[list[workloads.Outcome], dict]:
    from tracing import Tracer

    untraced = wl.run(0, workloads.Clock())
    tracer = Tracer()
    traced = []
    marks = [0]
    with tracer:
        for _ in range(2):
            traced.append(wl.run(0, workloads.Clock(tracer)))
            marks.append(len(tracer.spans))
    first = tracer.counts(marks[0], marks[1])
    second = tracer.counts(marks[1], marks[2])
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        traced[1].failures.append("traced runs disagree on counts: " + ", ".join(diff))
    tracer.write(workdir / f"spans-{wl.name}.jsonl")

    layers = tracer.layer_metrics([o.seconds for o in traced])
    traced_median = statistics.median(o.seconds for o in traced)
    layers["trace.untraced_solve_s"] = (untraced.seconds, "s")
    layers["trace.traced_solve_s"] = (traced_median, "s")
    layers["trace.overhead_ratio"] = (traced_median / untraced.seconds, "ratio")
    return [untraced, *traced], layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tanmor_file = pathlib.Path(workloads.tanmor.__file__).resolve()
    if SRC.resolve() not in tanmor_file.parents:
        print(f"tanmor imported from {tanmor_file}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = pathlib.Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        emit({"setup_s": setup_s})
        return 0

    wl.run(0, workloads.Clock(), warm=True)
    if args.trace:
        outcomes, layers = traced_runs(wl, workdir)
    else:
        outcomes, layers = measured_loop(wl, args.seconds, args.budget), {}
    emit(
        {
            "setup_s": setup_s,
            "ops": [outcome_dict(o) for o in outcomes],
            "layers": layers,
            "seeds": wl.seeds(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
