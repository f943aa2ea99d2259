"""Exception hierarchy shared across the package.

Every error this package raises on purpose derives from ``EstimationError``
so callers can catch one base class at the CLI boundary.
"""

from __future__ import annotations

from pathlib import Path


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class FunctionDomainError(EstimationError):
    """An input lies outside the domain of the requested operation."""


class DepthNonPositive(FunctionDomainError):
    """A 3D point sits at or behind the camera plane."""


class NonPositiveHeight(FunctionDomainError):
    """A bounding-box or body height is zero or negative."""


class InvalidTimestep(EstimationError):
    """A sampling period is zero or negative."""


class DimensionMismatch(EstimationError):
    """Vector or matrix shapes do not agree."""


class DecompositionFailure(EstimationError):
    """A covariance factorization failed even after a jitter retry."""


class SingularInnovation(EstimationError):
    """The innovation covariance is numerically singular."""


class InvalidEstimate(EstimationError, ValueError):
    """A Gaussian estimate has non-finite entries or an invalid covariance."""


class SingularCovariance(EstimationError):
    """A reported covariance cannot be factorized for a solve, or gives a
    negative normalized error squared."""


class EmptyTrack(EstimationError):
    """A track holds no frames."""


class FrameMisalignment(EstimationError):
    """Truth and estimate series do not cover the same frames."""


class ParseError(EstimationError):
    """A data file could not be parsed, at a known line or as a whole;
    the message names the file when ``path`` is given."""

    def __init__(
        self, line_number: int | None, message: str, path: str | Path | None = None
    ):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(EstimationError):
    """A configuration value is missing, unknown, or invalid."""
