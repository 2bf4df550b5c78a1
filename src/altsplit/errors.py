"""Exception types raised across the package."""

__all__ = [
    "AltSplitError",
    "NotSquareError",
    "DimensionMismatchError",
    "IndexGreaterThanOneError",
    "MismatchedSplittingError",
    "RangeNullConditionError",
    "ZeroDiagonalError",
    "UnknownTheoremError",
    "MissingDeltaError",
    "NonsingularHypothesisError",
    "ClassificationError",
    "MatrixMarketError",
    "UnsupportedFieldError",
]


class AltSplitError(Exception):
    """Base class for all altsplit errors."""


class NotSquareError(AltSplitError):
    """A square matrix was required."""


class DimensionMismatchError(AltSplitError):
    """Operands have incompatible shapes."""


class IndexGreaterThanOneError(AltSplitError):
    """The group inverse does not exist (rank(A) != rank(A^2))."""


class MismatchedSplittingError(AltSplitError):
    """Splittings in a sweep do not share the same coefficient matrix."""


class RangeNullConditionError(AltSplitError):
    """The range/null-space condition on K + X - A + Y U#L fails."""


class ZeroDiagonalError(AltSplitError):
    """diag(A) contains a zero entry, so no diagonal scaling exists."""


class UnknownTheoremError(AltSplitError):
    """Unrecognized theorem identifier."""


class MissingDeltaError(AltSplitError):
    """A shift parameter delta is required but was not supplied."""


class NonsingularHypothesisError(AltSplitError):
    """A nonsingularity hypothesis of a constructive result fails."""


class ClassificationError(AltSplitError):
    """Input splittings do not belong to the class an operation requires."""


class MatrixMarketError(AltSplitError):
    """Malformed Matrix Market file.

    Attributes
    ----------
    line : int or None
        1-based line number where parsing failed, when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedFieldError(MatrixMarketError):
    """Matrix Market field or symmetry this reader does not handle."""
