"""Independent coverage estimators: seeded Monte Carlo and grid rasterization.

These are the arbiters for the closed-form geometry elsewhere in the
package, so they deliberately share no code with it: coverage is decided by
plain distance comparisons on sampled or rasterized points.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError
from .field import SensorField
from .geometry import Point, TriangleGeom

# Two-sided 99% normal quantile for binomial confidence half-widths.
_Z99 = 2.5758293035489004

_MIN_GRID_RESOLUTION = 16


@dataclass(frozen=True)
class CoverageEstimate:
    """Monte-Carlo coverage summary for a sensor field."""

    covered_fraction: float
    uncovered_area: float
    samples: int
    half_width: float
    seed: int


def mc_coverage_fraction(field: SensorField, samples: int, seed: int) -> CoverageEstimate:
    """Fraction of the field within sensing range of any sensor.

    Uniform sampling with ``numpy.random.default_rng(seed)``; the same seed
    yields bitwise-identical results run to run. ``half_width`` is the 99%
    binomial confidence half-width of the covered fraction.
    """
    if samples <= 0:
        raise InvalidInputError(f"sample count must be > 0, got {samples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if field.area <= 0.0:
        raise InvalidInputError("field has zero area")
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, 2))
    pts[:, 0] *= field.width
    pts[:, 1] *= field.height
    covered = np.zeros(samples, dtype=bool)
    if field.stationary:
        sites = np.array([[s.position.x, s.position.y] for s in field.stationary])
        dist, _ = cKDTree(sites).query(pts, k=1)
        covered |= dist <= field.sensing_radius
    for m in field.mobile:
        dx = pts[:, 0] - m.position.x
        dy = pts[:, 1] - m.position.y
        covered |= dx * dx + dy * dy <= m.radius * m.radius
    hits = int(np.count_nonzero(covered))
    p = hits / samples
    half_width = _Z99 * sqrt(p * (1.0 - p) / samples)
    return CoverageEstimate(
        covered_fraction=p,
        uncovered_area=(1.0 - p) * field.area,
        samples=samples,
        half_width=half_width,
        seed=seed,
    )


def grid_region_uncovered(
    tri: TriangleGeom,
    disks: Sequence[tuple[Point, float]],
    resolution: int = 1024,
) -> float:
    """Deterministic grid estimate of the triangle area not covered by any disk.

    The triangle's bounding box is rasterized into ``resolution x resolution``
    cells; a cell counts as uncovered when its center lies inside the triangle
    and outside every disk. Error shrinks roughly linearly with resolution.
    """
    if int(resolution) != resolution or resolution < _MIN_GRID_RESOLUTION:
        raise InvalidInputError(
            f"grid resolution must be an integer >= {_MIN_GRID_RESOLUTION}, "
            f"got {resolution}"
        )
    if tri.degenerate:
        return 0.0
    (x1, y1), (x2, y2), (x3, y3) = tri.vertices
    xmin, xmax = min(x1, x2, x3), max(x1, x2, x3)
    ymin, ymax = min(y1, y2, y3), max(y1, y2, y3)
    n = int(resolution)
    dx = (xmax - xmin) / n
    dy = (ymax - ymin) / n
    xs = xmin + (np.arange(n) + 0.5) * dx
    ys = ymin + (np.arange(n) + 0.5) * dy
    X, Y = np.meshgrid(xs, ys)

    orient = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    sign = 1.0 if orient >= 0.0 else -1.0
    e1 = sign * ((x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1))
    e2 = sign * ((x3 - x2) * (Y - y2) - (y3 - y2) * (X - x2))
    e3 = sign * ((x1 - x3) * (Y - y3) - (y1 - y3) * (X - x3))
    inside = (e1 >= 0.0) & (e2 >= 0.0) & (e3 >= 0.0)

    covered = np.zeros_like(inside)
    for center, radius in disks:
        if radius < 0:
            raise InvalidInputError(f"radius must be >= 0, got {radius}")
        cx, cy = center
        covered |= (X - cx) ** 2 + (Y - cy) ** 2 <= radius * radius
    uncovered_cells = int(np.count_nonzero(inside & ~covered))
    return uncovered_cells * dx * dy
