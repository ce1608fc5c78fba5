"""Exception types shared across the toolkit, and the count rule every module checks."""

import numbers

__all__ = [
    "GeneClusterError",
    "ParseError",
    "DataError",
    "ValidationError",
    "DegenerateLabelsError",
    "ParameterError",
    "InvalidDistributionError",
    "ShapeError",
    "DomainError",
    "ValidityError",
    "DegenerateClusteringError",
    "PipelineError",
]


class GeneClusterError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GeneClusterError):
    """Structurally malformed input file (ragged rows, bad layout)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DataError(GeneClusterError):
    """A cell that exists but cannot be used (non-numeric, empty, non-finite)."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ValidationError(GeneClusterError):
    """Inputs violate a documented invariant (duplicate ids, unknown sample, ...)."""


class DegenerateLabelsError(ValidationError):
    """Fewer than two distinct classes where at least two are required."""


class ParameterError(GeneClusterError):
    """A parameter outside its documented range."""


class InvalidDistributionError(GeneClusterError):
    """A probability vector with negative mass or mass not summing to one."""


class ShapeError(GeneClusterError):
    """Operands whose dimensions do not line up."""


class DomainError(GeneClusterError):
    """Values outside the domain an operation is defined on."""


class ValidityError(GeneClusterError):
    """A clustering that cannot be scored (empty cluster, fewer than two clusters)."""


class DegenerateClusteringError(ValidityError):
    """Coincident centroids make separation-based indices undefined."""


class PipelineError(GeneClusterError):
    """Failure attributed to a named pipeline stage."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _check_integer(name, value, least):
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
