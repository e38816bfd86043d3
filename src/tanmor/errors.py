"""Exception hierarchy for the tanmor package.

Every error raised deliberately by this library derives from
:class:`TanmorError`, so callers (and the CLI driver) can distinguish
numerical/contract failures from plain bugs.
"""

from __future__ import annotations

__all__ = [
    "TanmorError",
    "DimensionMismatch",
    "SingularResolvent",
    "IllConditionedLyapunov",
    "NonzeroFeedthrough",
    "PeakSearchNotConverged",
    "RankDeficient",
    "DuplicateFrequency",
    "IndexOutOfRange",
    "RankExhausted",
    "GramianRankCollapse",
    "EmptyGrid",
    "UnstableSystem",
    "InvariantViolation",
    "ParseError",
    "UnsupportedFormat",
    "IoError",
]


class TanmorError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(TanmorError):
    """Matrix or system dimensions are inconsistent."""


class SingularResolvent(TanmorError):
    """(sI - A) is numerically singular at the requested point.

    Raised when the estimated reciprocal condition number of the shifted
    matrix falls below 1e-14, instead of silently returning garbage.
    """


class IllConditionedLyapunov(TanmorError):
    """A Lyapunov (or coupling Sylvester) solve, or an H2 trace from it, failed its check.

    Raised when a solve leaves an oversized residual, or when an H2 trace is
    not finite or its rounding bound exceeds the threshold.
    """


class NonzeroFeedthrough(TanmorError):
    """The squared H2 norm is infinite because the feedthrough D is nonzero."""


class PeakSearchNotConverged(TanmorError):
    """The peak-gain search ran out of Hamiltonian rounds without a certificate.

    The cap is ``tanmor.gramians.PEAK_SEARCH_MAX_ROUNDS``; the search
    usually certifies its gain in one round.
    """


class RankDeficient(TanmorError):
    """Requested singular-value indices exceed the numerical rank."""


class DuplicateFrequency(TanmorError):
    """An interpolation frequency is already present (extend it instead)."""


class IndexOutOfRange(TanmorError):
    """A point or order index lies outside the valid range."""


class RankExhausted(TanmorError):
    """Rank growth was requested beyond the available singular directions."""


class GramianRankCollapse(TanmorError):
    """The projected Gramian is exactly zero; the interpolation data is degenerate."""


class EmptyGrid(TanmorError):
    """A frequency grid argument was empty."""


class UnstableSystem(TanmorError):
    """The operation requires an asymptotically stable system."""


class InvariantViolation(TanmorError):
    """A loaded or constructed system violates a structural invariant."""


class ParseError(TanmorError):
    """A model file could not be parsed.

    Carries the file path and (when known) the 1-based line number.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)


class UnsupportedFormat(TanmorError):
    """Unknown model file format tag."""


class IoError(TanmorError):
    """A model file could not be read or written."""
