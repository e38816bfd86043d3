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
)
from .interpolation import InterpData, realize_h
from .lti import (
    FreqResponse,
    StateSpace,
    eval_tf,
    freq_sweep,
    is_strictly_stable,
    series_sub,
)
from .modelio import load_model, save_model
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
from .selection import SelectionStrategy, StrategyKind

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
    "series_sub",
    "is_strictly_stable",
    # gramians and norms
    "GramianResult",
    "PeakGain",
    "ErrorEstimate",
    "controllability_gramian",
    "h2_norm_sq",
    "peak_gain",
    "error_norm",
    # interpolation
    "InterpData",
    "realize_h",
    # selection
    "StrategyKind",
    "SelectionStrategy",
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
    "load_model",
    "save_model",
]
