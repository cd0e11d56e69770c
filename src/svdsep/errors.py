"""Exception types raised across the package.

Every error derives from :class:`SvdsepError` so callers can catch the whole
family, and from the closest builtin (``ValueError`` / ``IndexError``) so the
classes behave naturally in generic code.
"""

__all__ = [
    "SvdsepError",
    "InvalidInputError",
    "ShapeError",
    "DegeneratePencilError",
    "ConvergenceError",
    "RangeError",
    "InsufficientRankError",
    "DegenerateSpectrumError",
    "OrderError",
    "ConfigError",
    "LayoutError",
    "GeneratorSpecError",
    "ParseError",
]


class SvdsepError(Exception):
    """Base class for all svdsep errors."""


class InvalidInputError(SvdsepError, ValueError):
    """Input array contains NaN/inf entries or violates a basic precondition."""


class ShapeError(SvdsepError, ValueError):
    """Matrix dimensions are incompatible with the requested operation."""


class DegeneratePencilError(SvdsepError, ValueError):
    """The stacked matrix of a joint decomposition is rank deficient."""


class ConvergenceError(SvdsepError, ValueError):
    """A LAPACK factorization failed, e.g. an SVD did not converge."""


class RangeError(SvdsepError, IndexError):
    """A 1-based index or index range falls outside the valid interval."""


class InsufficientRankError(SvdsepError, ValueError):
    """The spectrum has too few nonzero singular values for the operation."""


class DegenerateSpectrumError(SvdsepError, ValueError):
    """All energy gaps vanish, so the entropy chain is undefined."""


class OrderError(SvdsepError, ValueError):
    """Requested smoothness order exceeds the available singular values."""


class ConfigError(SvdsepError, ValueError):
    """A window/scan configuration is invalid for the given image."""


class LayoutError(SvdsepError, ValueError):
    """An embedding layout does not match the signals or matrix it is applied to."""


class GeneratorSpecError(SvdsepError, ValueError):
    """A synthetic-data specification is infeasible or self-contradictory."""


class ParseError(SvdsepError, ValueError):
    """A file could not be parsed; carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
