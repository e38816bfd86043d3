"""The names ``import tanmor`` offers, and the loop steps it keeps in modules."""

import importlib

import pytest

import tanmor

PUBLIC = {
    "__version__",
    # errors
    "TanmorError",
    "DimensionMismatch",
    "DuplicateFrequency",
    "EmptyGrid",
    "GramianRankCollapse",
    "IllConditionedLyapunov",
    "IndexOutOfRange",
    "InvariantViolation",
    "IoError",
    "NonzeroFeedthrough",
    "ParseError",
    "PeakSearchNotConverged",
    "RankDeficient",
    "RankExhausted",
    "SingularResolvent",
    "UnstableSystem",
    "UnsupportedFormat",
    # systems
    "StateSpace",
    "FreqResponse",
    "eval_tf",
    "freq_sweep",
    "series_sub",
    "is_strictly_stable",
    # gramians and norms
    "controllability_gramian",
    "GramianResult",
    "h2_norm_sq",
    "peak_gain",
    "PeakGain",
    "error_norm",
    "ErrorEstimate",
    # the error system of the monotonicity proof, and its data
    "InterpData",
    "realize_h",
    # configuration and results
    "StrategyKind",
    "SelectionStrategy",
    "ReducerConfig",
    "TraceRow",
    "ReductionTrace",
    "SweepPoint",
    # the loop, the baseline and model files
    "reduce",
    "balanced_truncation",
    "hankel_values",
    "sweep_orders",
    "load_model",
    "save_model",
}

# Steps that ``reduce`` drives, with the module that defines each.  They stay
# importable from there under these names: the benchmark's tracer wraps them.
LOOP_STEPS = {
    "psd_factor": "gramians",
    "resolvent_rows": "lti",
    "InterpPoint": "interpolation",
    "truncated_point": "interpolation",
    "append_point": "interpolation",
    "extend_point": "interpolation",
    "realize_r": "interpolation",
    "WeightSolution": "weights",
    "solve_weights": "weights",
    "SplitMix64": "selection",
    "Refinement": "selection",
    "refine": "selection",
    "select_max_error": "selection",
    "select_discrete": "selection",
    "select_random": "selection",
    "detect_format": "modelio",
}

MODULES = (
    "errors",
    "gramians",
    "interpolation",
    "lti",
    "modelio",
    "reduction",
    "selection",
    "weights",
)


def test_all_is_the_public_set():
    assert len(tanmor.__all__) == len(PUBLIC) == 45
    assert set(tanmor.__all__) == PUBLIC
    for name in tanmor.__all__:
        assert getattr(tanmor, name) is not None


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_are_package_exports(module):
    assert set(importlib.import_module(f"tanmor.{module}").__all__) <= PUBLIC


@pytest.mark.parametrize("name, module", sorted(LOOP_STEPS.items()))
def test_loop_steps_stay_in_their_modules(name, module):
    assert not hasattr(tanmor, name)
    mod = importlib.import_module(f"tanmor.{module}")
    assert callable(getattr(mod, name))
    assert name not in mod.__all__
