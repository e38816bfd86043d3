"""Iterative tangential-interpolation model reduction for MIMO LTI systems.

The package builds reduced models by interpolating the full transfer
function along dominant singular directions at greedily chosen
frequencies, with output weights re-optimized each step against a
Gramian-weighted H2-type objective.  See the README for a tour.
"""

from .errors import (
    DimensionMismatch,
    DuplicateFrequency,
    EmptyGrid,
    GramianRankCollapse,
    IllConditionedLyapunov,
    IndexOutOfRange,
    InvariantViolation,
    IoError,
    NonzeroFeedthrough,
    ParseError,
    PeakSearchNotConverged,
    RankDeficient,
    RankExhausted,
    SingularResolvent,
    TanmorError,
    UnstableSystem,
    UnsupportedFormat,
)
from .gramians import (
    ErrorEstimate,
    GramianResult,
    PeakGain,
    controllability_gramian,
    error_norm,
    h2_norm_sq,
    peak_gain,
    psd_factor,
)
from .interpolation import (
    InterpData,
    InterpPoint,
    append_point,
    extend_point,
    realize_h,
    realize_r,
    truncated_point,
)
from .lti import (
    FreqResponse,
    StateSpace,
    eval_tf,
    freq_sweep,
    is_strictly_stable,
    resolvent_rows,
    series_sub,
)
from .modelio import detect_format, load_model, save_model
from .reduction import (
    ReducerConfig,
    ReductionTrace,
    SweepPoint,
    TraceRow,
    balanced_truncation,
    hankel_values,
    reduce,
    sweep_orders,
)
from .selection import (
    Refinement,
    SelectionStrategy,
    SplitMix64,
    StrategyKind,
    refine,
    select_discrete,
    select_max_error,
    select_random,
)
from .weights import WeightSolution, solve_weights

__version__ = "0.1.0"

__all__ = [
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
    "resolvent_rows",
    "series_sub",
    "is_strictly_stable",
    # gramians and norms
    "GramianResult",
    "PeakGain",
    "ErrorEstimate",
    "controllability_gramian",
    "psd_factor",
    "h2_norm_sq",
    "peak_gain",
    "error_norm",
    # interpolation
    "InterpPoint",
    "InterpData",
    "truncated_point",
    "append_point",
    "extend_point",
    "realize_r",
    "realize_h",
    # weights
    "WeightSolution",
    "solve_weights",
    # selection
    "StrategyKind",
    "SelectionStrategy",
    "SplitMix64",
    "Refinement",
    "select_max_error",
    "select_discrete",
    "select_random",
    "refine",
    # reduction
    "ReducerConfig",
    "TraceRow",
    "ReductionTrace",
    "SweepPoint",
    "reduce",
    "balanced_truncation",
    "hankel_values",
    "sweep_orders",
    # io
    "detect_format",
    "load_model",
    "save_model",
]
