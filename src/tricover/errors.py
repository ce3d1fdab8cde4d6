"""Error taxonomy shared by all tricover modules.

Every error carries a short machine-readable ``kind`` tag so the CLI can emit
single-line, parseable diagnostics (``error: <kind>: <message>``).
"""
from __future__ import annotations


class TricoverError(Exception):
    """Base class for all package errors."""

    kind = "error"


class InvalidInputError(TricoverError):
    """A value violates a precondition (negative length, bad angle, ...)."""

    kind = "invalid-input"


class DegenerateGeometryError(TricoverError):
    """A triangle is degenerate (collinear vertices / zero area)."""

    kind = "degenerate-geometry"


class InsufficientSitesError(TricoverError):
    """Fewer than three sites, or a layout too flat to triangulate."""

    kind = "insufficient-sites"


class DuplicateSiteError(TricoverError):
    """Two sensors share exact coordinates."""

    kind = "duplicate-site"


class InconsistentInputError(TricoverError):
    """Two inputs that must refer to the same data do not match."""

    kind = "inconsistent-input"


class UsageError(TricoverError):
    """A command line the CLI parser cannot read (unknown flag, missing value, ...)."""

    kind = "usage"
