"""Command-line front end.

One subcommand, ``reduce``, drives the full pipeline: load a model, run
the greedy loop, and write the reduced model next to a trace CSV, an
optional order-sweep comparison CSV, and a JSON run report, all under a
common output prefix.

Per-iteration wall times are measured either way, but the trace file
writes them as ``0.000`` unless ``--timings`` is given, so that repeated
runs of a deterministic configuration produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys as _sys

from .errors import ParseError, TanmorError
from .modelio import detect_format, load_model, save_model
from .reduction import ReducerConfig, ReductionTrace, reduce, sweep_orders
from .selection import SelectionStrategy

__all__ = ["build_parser", "run_cli", "main"]

TRACE_HEADER = [
    "iter",
    "omega",
    "r_min",
    "r_max",
    "order",
    "gamma",
    "error_norm",
    "stable_flag",
    "seconds",
]

COMPARE_HEADER = [
    "order",
    "achieved_order",
    "error",
    "error_approximate",
    "baseline_error",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanmor",
        description="Iterative tangential-interpolation model reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("reduce", help="reduce a state-space model")
    p.add_argument("--model", required=True, help="input model file or prefix")
    p.add_argument(
        "--format",
        choices=["dense", "mm"],
        default=None,
        help="input format (default: detect from the path)",
    )
    p.add_argument(
        "--strategy",
        choices=["max-error", "discrete", "random"],
        default="max-error",
        help="frequency selection rule (default: max-error)",
    )
    p.add_argument(
        "--grid-file",
        default=None,
        help="file of grid frequencies, one per line (discrete strategy)",
    )
    p.add_argument(
        "--omega-min",
        type=float,
        default=1e-2,
        help="lower band edge for random draws / the default grid",
    )
    p.add_argument(
        "--omega-max",
        type=float,
        default=1e2,
        help="upper band edge for random draws / the default grid",
    )
    p.add_argument(
        "--K",
        type=int,
        default=100,
        help="grid size or draws per iteration (default: 100)",
    )
    p.add_argument("--seed", type=int, default=0, help="random strategy seed")
    p.add_argument(
        "--mu", type=float, default=1e-3, help="relative frequency-merge tolerance"
    )
    p.add_argument(
        "--rho", type=float, default=0.95, help="singular-value window factor"
    )
    p.add_argument(
        "--max-order", type=int, required=True, help="state budget of the reduced model"
    )
    p.add_argument(
        "--gamma-tol",
        type=float,
        default=1e-8,
        help="stop when gamma drops below this fraction of its start",
    )
    p.add_argument(
        "--error-tol",
        type=float,
        default=None,
        help="stop when the error norm drops below this fraction of sqrt(gamma0)",
    )
    p.add_argument(
        "--max-iters", type=int, default=100, help="iteration bound (default: 100)"
    )
    p.add_argument(
        "--orders",
        default=None,
        help="comma-separated orders for an error comparison sweep",
    )
    p.add_argument(
        "--baseline",
        choices=["balanced", "none"],
        default="balanced",
        help="baseline method for the sweep (default: balanced)",
    )
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument(
        "--timings",
        action="store_true",
        help="write measured per-iteration seconds instead of 0.000",
    )
    return parser


def _read_grid_file(path: str) -> list[float]:
    grid = []
    p = pathlib.Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read grid file: {exc}", str(p)) from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                grid.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"cannot parse frequency {tok!r}", str(p), lineno
                ) from None
    return grid


def _build_strategy(args) -> SelectionStrategy:
    if args.strategy == "max-error":
        if args.grid_file is not None:
            raise ValueError("--grid-file applies to the discrete strategy only")
        return SelectionStrategy.max_error()
    if args.strategy == "discrete":
        grid = _read_grid_file(args.grid_file) if args.grid_file else None
        return SelectionStrategy.discrete(
            grid=grid,
            omega_min=args.omega_min,
            omega_max=args.omega_max,
            K=args.K,
        )
    if args.grid_file is not None:
        raise ValueError("--grid-file applies to the discrete strategy only")
    return SelectionStrategy.random(
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        K=args.K,
        seed=args.seed,
    )


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--orders must be comma-separated integers, got {text!r}")
    if not orders:
        raise ValueError("--orders is empty")
    return orders


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _write_trace(path: pathlib.Path, trace: ReductionTrace, timings: bool) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in trace.rows:
            writer.writerow(
                [
                    row.iteration,
                    _g17(row.omega),
                    row.r_min,
                    row.r_max,
                    row.order,
                    _g17(row.gamma),
                    _g17(row.error_norm),
                    1 if row.stable else 0,
                    f"{row.seconds:.3f}" if timings else "0.000",
                ]
            )


def _write_compare(path: pathlib.Path, points) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARE_HEADER)
        for pt in points:
            writer.writerow(
                [
                    pt.order,
                    pt.achieved_order,
                    _g17(pt.error),
                    0,  # error_approximate: errors are exact; column kept for format
                    _g17(pt.baseline_error),
                ]
            )


def _cmd_reduce(args) -> int:
    orders = _parse_orders(args.orders) if args.orders is not None else None
    model = load_model(args.model, args.format)
    in_format = args.format or detect_format(pathlib.Path(args.model), None)
    cfg = ReducerConfig(
        strategy=_build_strategy(args),
        max_order=args.max_order,
        mu=args.mu,
        rho=args.rho,
        gamma_rel_tol=args.gamma_tol,
        error_rel_tol=args.error_tol,
        max_iters=args.max_iters,
    )
    trace = reduce(model, cfg)

    out = pathlib.Path(args.out)
    written = []

    trace_path = out.with_name(out.name + ".trace.csv")
    _write_trace(trace_path, trace, args.timings)
    written.append(trace_path)

    if in_format == "mm":
        model_path = out.with_name(out.name + ".model")
        save_model(trace.model, model_path, format="mm")
        written.extend(
            model_path.with_name(model_path.name + f".{k}.mtx") for k in "ABCD"
        )
    else:
        model_path = out.with_name(out.name + ".model.txt")
        save_model(trace.model, model_path, format="dense")
        written.append(model_path)

    sweep = None
    if orders is not None:
        sweep = sweep_orders(model, trace, orders, args.baseline)
        compare_path = out.with_name(out.name + ".compare.csv")
        _write_compare(compare_path, sweep)
        written.append(compare_path)

    last = trace.rows[-1] if trace.rows else None
    report = {
        "model": str(args.model),
        "format": in_format,
        "n": model.n,
        "p": model.p,
        "q": model.q,
        "strategy": cfg.strategy.kind.value,
        "max_order": cfg.max_order,
        "iterations": len(trace.rows),
        "order": trace.model.n,
        "gamma0": trace.gamma0,
        "gamma": trace.final_gamma,
        "error_norm": None
        if last is None or math.isnan(last.error_norm)
        else last.error_norm,
        "stable": bool(last.stable) if last is not None else True,
        "stop_reason": trace.stop_reason,
    }
    report_path = out.with_name(out.name + ".report.json")
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    written.append(report_path)

    print(
        f"reduced order {model.n} -> {trace.model.n} in {len(trace.rows)} iterations "
        f"(gamma {trace.gamma0:.6g} -> {trace.final_gamma:.6g}; {trace.stop_reason})"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _cmd_reduce(args)
    except TanmorError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=_sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main() -> None:
    _sys.exit(run_cli(_sys.argv[1:]))
