"""Independent coverage estimators: seeded Monte Carlo and grid rasterization.

These are the arbiters for the closed-form geometry elsewhere in the
package, so they deliberately share no code with it: coverage is decided by
plain distance comparisons on sampled or rasterized points.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter, sqrt
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError
from .field import SensorField
from .geometry import Point, TriangleGeom

# Two-sided 99% normal quantile for binomial confidence half-widths.
_Z99 = 2.5758293035489004

_MIN_GRID_RESOLUTION = 16

# Monte-Carlo samples are drawn and tested this many at a time, which bounds
# memory whatever the sample count. Successive draws from one generator
# concatenate bit for bit to a single draw, so the chunk size changes no
# result.
MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class CoverageEstimate:
    """Monte-Carlo coverage of a field before and after moving some mobiles.

    The fields are the keys of a report's ``verify`` section.
    """

    before: float
    after: float
    samples: int
    seed: int
    half_width: float


def _in_disks(
    pts: np.ndarray, disks: Sequence[tuple[Point, float]], covered: np.ndarray
) -> np.ndarray:
    """OR into ``covered`` which of ``pts`` lie in any of ``disks``."""
    for (cx, cy), radius in disks:
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        covered |= dx * dx + dy * dy <= radius * radius
    return covered


def mc_coverage_fraction(
    field: SensorField,
    samples: int,
    seed: int,
    moves: Mapping[int, Point] | None = None,
) -> CoverageEstimate:
    """Fraction of the field within sensing range of any sensor, before and after ``moves``.

    Both fractions are counted on one set of uniform samples from
    ``numpy.random.default_rng(seed)`` (paired sampling), so without moves
    they are equal; the same seed yields bitwise-identical results run to
    run. ``moves`` maps ids of ``field``'s mobiles to positions; other
    mobiles stay put. ``half_width`` is the larger of the two 99% binomial
    confidence half-widths.
    """
    if samples <= 0:
        raise InvalidInputError(f"sample count must be > 0, got {samples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if field.area <= 0.0:
        raise InvalidInputError("field has zero area")
    moves = moves or {}
    staying = [(m.position, m.radius) for m in field.mobile if m.id not in moves]
    leaving = [(m.position, m.radius) for m in field.mobile if m.id in moves]
    arriving = [(moves[m.id], m.radius) for m in field.mobile if m.id in moves]
    tree = None
    if field.stationary:
        tree = cKDTree([[s.position.x, s.position.y] for s in field.stationary])
    # cKDTree's bound is strict; the next float up keeps points at exactly R.
    bound = nextafter(field.sensing_radius, inf)
    rng = np.random.default_rng(seed)
    hits_before = hits_after = 0
    for start in range(0, samples, MC_CHUNK):
        pts = rng.random((min(MC_CHUNK, samples - start), 2))
        pts[:, 0] *= field.width
        pts[:, 1] *= field.height
        if tree is None:
            covered = np.zeros(len(pts), dtype=bool)
        else:
            dist, _ = tree.query(pts, distance_upper_bound=bound)
            covered = dist <= field.sensing_radius
        covered = _in_disks(pts, staying, covered)
        hits_before += int(np.count_nonzero(_in_disks(pts, leaving, covered.copy())))
        hits_after += int(np.count_nonzero(_in_disks(pts, arriving, covered)))
    before, after = hits_before / samples, hits_after / samples
    half_width = max(
        _Z99 * sqrt(p * (1.0 - p) / samples) for p in (before, after)
    )
    return CoverageEstimate(
        before=before, after=after, samples=samples, seed=seed, half_width=half_width
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
