"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["BoxpathError", "NumericalError", "IncompatibleGridError", "EmptyCellError", "CorruptArtifactError"]


class BoxpathError(Exception):
    """Base class for package-specific failures."""


class NumericalError(BoxpathError):
    """A numeric sanity check failed (mass, coverage, or tolerance)."""


class IncompatibleGridError(BoxpathError):
    """Two gridded objects cannot be combined because their domains disagree."""


class EmptyCellError(BoxpathError):
    """A requested location cell contains no samples."""


class CorruptArtifactError(BoxpathError):
    """An artifact file reads, but what it holds is not what its stage writes."""
