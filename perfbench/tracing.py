"""Span tracing of tanmor's public functions and the NumPy/SciPy kernels below them.

The library is not modified: :class:`Tracer` swaps every module binding of a
public function for a wrapper while it is installed, and restores the
originals on exit.  ``from .lti import eval_tf`` gives ``gramians`` and
``selection`` bindings of their own, so each wrapped function is replaced in
every ``tanmor`` module that holds it, not only where it is defined.

A span records its name, its parent span, start and end.  Spans stay in
memory while the traced operations run; :meth:`Tracer.write` dumps them once
at the end.  A layer's self time is its span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import collections
import importlib
import json
import pathlib
import sys
import time

# Public tanmor functions, keyed by the module that defines them.  Each maps
# to the span name it is recorded under and an optional note taken from the
# call's arguments and result.
LAYER_FUNCTIONS = {
    "tanmor.lti": {
        "eval_tf": "lti.eval_tf",
        "freq_sweep": "lti.freq_sweep",
        "resolvent_rows": "lti.resolvent_rows",
        "series_sub": "lti.series_sub",
    },
    "tanmor.gramians": {
        "peak_gain": "gramians.peak_gain",
        "error_norm": "gramians.error_norm",
        "controllability_gramian": "gramians.controllability_gramian",
        "psd_factor": "gramians.psd_factor",
    },
    "tanmor.interpolation": {
        "truncated_point": "interpolation.truncated_point",
        "append_point": "interpolation.grow",
        "extend_point": "interpolation.grow",
        "realize_r": "interpolation.realize_r",
    },
    "tanmor.weights": {"solve_weights": "weights.solve_weights"},
    "tanmor.selection": {
        "select_max_error": "selection.propose",
        "select_discrete": "selection.propose",
        "select_random": "selection.propose",
        "refine": "selection.refine",
    },
    "tanmor.reduction": {
        "reduce": "reduction.reduce",
        "balanced_truncation": "reduction.balanced_truncation",
        "sweep_orders": "reduction.sweep_orders",
    },
    "tanmor.modelio": {
        "load_model": "modelio.load_model",
        "save_model": "modelio.save_model",
    },
    "tanmor.cli": {"run_cli": "cli.run_cli"},
}

# NumPy/SciPy entry points that tanmor calls through the module attribute.
KERNEL_FUNCTIONS = {
    "numpy.linalg": {
        "eigvals": "eigvals",
        "eigh": "eigh",
        "svd": "svd",
        "inv": "inv",
    },
    "scipy.linalg": {
        "lu_factor": "lu_factor",
        "solve_continuous_lyapunov": "lyapunov",
        "solve_sylvester": "sylvester",
        "schur": "schur",
        "hessenberg": "hessenberg",
    },
}
KERNELS = (
    "lu_factor", "gbtrf", "eigvals", "eigh", "svd",
    "inv", "lyapunov", "sylvester", "schur", "hessenberg",
)
# Kernels whose problem size is summed as n^3 over calls (computed, not timed).
N3_KERNELS = ("lu_factor", "eigvals", "lyapunov")
# Spans whose inclusive time (children included) is reported as a share of the
# operation's wall time: the hot spots each workload is meant to isolate.
SHARE_SPANS = (
    "lti.eval_tf",
    "lti.freq_sweep",
    "gramians.peak_gain",
    "gramians.error_norm",
    "gramians.controllability_gramian",
    "gramians.psd_factor",
    "selection.propose",
    "reduction.balanced_truncation",
)


def _leading_dim_cubed(args, kwargs, out):
    return int(args[0].shape[0]) ** 3


def _bytes_written(args, kwargs, out):
    path = pathlib.Path(args[1])
    if path.is_file():
        return path.stat().st_size
    # Matrix Market output is a quadruple of files next to the prefix.
    return sum(p.stat().st_size for p in path.parent.glob(path.name + ".*.mtx"))


NOTES = {
    "lti.freq_sweep": lambda args, kwargs, out: len(out),
    "gramians.error_norm": lambda args, kwargs, out: bool(out.approximate),
    "weights.solve_weights": lambda args, kwargs, out: bool(out.regularized),
    "modelio.save_model": _bytes_written,
    **{f"kernel.{k}": _leading_dim_cubed for k in N3_KERNELS},
}


def _merged(args, kwargs, out):
    """Note of extend_point, which shares the grow span with append_point."""
    return True


class Tracer:
    """Records spans while :attr:`active`; installed with ``with tracer:``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, note]
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                tracer._stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapper)

    # -- install / remove ------------------------------------------------

    def __enter__(self):
        import tanmor

        tanmor_modules = [
            m for n, m in sys.modules.items() if n == "tanmor" or n.startswith("tanmor.")
        ]
        for mod_name, funcs in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(mod_name)
            for attr, span in funcs.items():
                original = getattr(mod, attr)
                note = _merged if attr == "extend_point" else NOTES.get(span)
                self._patch_everywhere(
                    original, self._wrap(span, original, note), tanmor_modules
                )
        self._set(
            tanmor.StateSpace, "poles", self._wrap("lti.poles", tanmor.StateSpace.poles)
        )
        for mod_name, funcs in KERNEL_FUNCTIONS.items():
            mod = importlib.import_module(mod_name)
            for attr, kernel in funcs.items():
                original = getattr(mod, attr)
                span = f"kernel.{kernel}"
                wrapper = self._wrap(span, original, NOTES.get(span))
                self._patch_everywhere(original, wrapper, [mod, *tanmor_modules])
        lti = importlib.import_module("tanmor.lti")
        self._set(lti, "get_lapack_funcs", self._lapack_lookup(lti.get_lapack_funcs))
        return self

    def _lapack_lookup(self, get_lapack_funcs):
        """Wrap the gbtrf routine handed out by tanmor.lti's LAPACK lookup."""

        def lookup(names, *args, **kwargs):
            funcs = get_lapack_funcs(names, *args, **kwargs)
            if isinstance(names, str):
                return self._wrap("kernel.gbtrf", funcs) if names == "gbtrf" else funcs
            return [
                self._wrap("kernel.gbtrf", f) if n == "gbtrf" else f
                for n, f in zip(names, funcs)
            ]

        return lookup

    def __exit__(self, *exc):
        self.active = False
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- output ----------------------------------------------------------

    def write(self, path: pathlib.Path) -> None:
        """Write one JSON list per span: id, parent, name, start, end, note."""
        with path.open("w") as fh:
            for sid, (name, parent, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end, note]) + "\n")

    def counts(self, start: int, stop: int) -> dict[str, int]:
        """Call counts and note sums (n^3, points, bytes, flags) of spans[start:stop].

        These repeat exactly when the same operation is traced twice.
        """
        out: collections.Counter = collections.Counter()
        for name, _, _, _, note in self.spans[start:stop]:
            out[name + ".calls"] += 1
            if note is not None:
                out[name + ".notes"] += int(note)
        return dict(out)

    def layer_metrics(self, op_seconds: list[float]) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics, as (value, unit), from the recorded spans.

        ``op_seconds`` holds the wall time of each traced operation.
        """
        spans = self.spans
        ops = len(op_seconds)
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        notes: collections.Counter = collections.Counter()
        inclusive: collections.Counter = collections.Counter()
        under_propose = [False] * len(spans)
        propose_evals = 0
        for sid, (name, parent, start, end, note) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][1]
            if outer < 0:  # outermost span of its name: no double counting
                inclusive[name] += end - start
            if note is not None:
                notes[name] += int(note)
            under_propose[sid] = name == "selection.propose" or (
                parent >= 0 and under_propose[parent]
            )
            if under_propose[sid]:
                if name == "lti.eval_tf":
                    propose_evals += 1
                elif name == "lti.freq_sweep":
                    propose_evals += note or 0  # None if the sweep raised

        def per_op(x):
            return x / ops

        def frac(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}

        def timed(name, with_calls=True):
            if with_calls:
                m[name + ".calls"] = (per_op(calls[name]), "count")
            m[name + ".s"] = (per_op(self_s[name]), "s")

        timed("lti.eval_tf")
        m["lti.freq_sweep.points"] = (per_op(notes["lti.freq_sweep"]), "count")
        timed("lti.freq_sweep", with_calls=False)
        timed("lti.resolvent_rows")
        m["lti.series_sub.calls"] = (per_op(calls["lti.series_sub"]), "count")
        timed("lti.poles")
        timed("gramians.peak_gain")
        timed("gramians.error_norm")
        m["gramians.error_norm.approx_frac"] = (
            frac(notes["gramians.error_norm"], calls["gramians.error_norm"]),
            "ratio",
        )
        timed("gramians.controllability_gramian")
        timed("gramians.psd_factor")
        timed("interpolation.truncated_point", with_calls=False)
        timed("interpolation.grow")
        m["interpolation.merge_frac"] = (
            frac(notes["interpolation.grow"], calls["interpolation.grow"]),
            "ratio",
        )
        timed("interpolation.realize_r", with_calls=False)
        timed("weights.solve_weights")
        m["weights.regularized_frac"] = (
            frac(notes["weights.solve_weights"], calls["weights.solve_weights"]),
            "ratio",
        )
        timed("selection.propose")
        m["selection.evals_per_propose"] = (
            frac(propose_evals, calls["selection.propose"]),
            "count",
        )
        timed("selection.refine", with_calls=False)
        timed("reduction.reduce")
        timed("reduction.balanced_truncation")
        timed("reduction.sweep_orders", with_calls=False)
        timed("modelio.load_model", with_calls=False)
        timed("modelio.save_model", with_calls=False)
        m["modelio.bytes_written"] = (per_op(notes["modelio.save_model"]), "B")
        timed("cli.run_cli", with_calls=False)
        for k in KERNELS:
            timed(f"kernel.{k}")
        for k in N3_KERNELS:
            m[f"kernel.{k}.n3"] = (per_op(notes[f"kernel.{k}"]), "n3_computed")
        for name in SHARE_SPANS:
            m[name + ".share"] = (frac(inclusive[name], sum(op_seconds)), "ratio")
        m["trace.spans"] = (per_op(len(spans)), "count")
        return m
