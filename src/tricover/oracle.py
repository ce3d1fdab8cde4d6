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
    """OR into ``covered`` which of ``pts`` lie in any of ``disks``.

    ``pts`` must be sorted by x. Each disk is tested, with the expression
    ``dx * dx + dy * dy <= r * r``, only on the slice of points whose x lies
    in ``[cx - reach, cx + reach)``, where ``reach = r + m`` and the margin
    is ``m = 1e-9 * r + 1e-12 * |cx| + 2**-500``. The mask equals a test of
    every point, because a point outside the slice fails the test in
    floating point too. With u = 2**-53 the unit roundoff:

    - The computed ends ``cx -/+ reach`` are within u * (|cx| + reach) of
      the exact ones; the ``1e-12 * |cx|`` term outweighs that, so a point
      outside the slice has |x - cx| > r * (1 + 9e-10) + 2**-501.
    - ``dx = x - cx`` rounds with relative error at most u (it is exact
      when subnormal), so |dx| > r * (1 + 8e-10) and |dx| > 2**-502.
    - ``dy * dy >= 0`` and rounding is monotone, so the computed sum is at
      least the computed ``dx * dx``. If ``r * r`` is a normal float, both
      squares round with relative error at most u, and
      ``dx * dx >= r**2 * (1 + 1.6e-9) * (1 - u) > r**2 * (1 + u) >= r * r``.
    - If ``r * r`` is subnormal, the squares round with absolute error at
      most 2**-1075: for r >= 2**-520, r**2 * 1.6e-9 exceeds their sum; for
      smaller r, ``dx * dx > 2**-1004`` is far above ``r * r < 2**-1040``.
    - If ``r * r`` overflows, every point passes the test; ``reach`` is
      then infinite and the slice is the whole array.
    """
    xs = pts[:, 0]
    for (cx, cy), radius in disks:
        r2 = radius * radius
        margin = 1e-9 * radius + 1e-12 * abs(cx) + 2.0**-500
        reach = inf if r2 == inf else radius + margin
        lo, hi = np.searchsorted(xs, (cx - reach, cx + reach))
        dx = xs[lo:hi] - cx
        dy = pts[lo:hi, 1] - cy
        covered[lo:hi] |= dx * dx + dy * dy <= r2
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

    Only hit counts leave the loop, so the order of the points within a
    chunk is free: each chunk is sorted by x once, which lets every mobile
    disk be tested on its own x-band alone (see ``_in_disks``).
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
        pts = pts.take(np.argsort(pts[:, 0]), axis=0)
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
    # A row of x and a column of y: the expressions below broadcast to the
    # full grid with the same per-element arithmetic as a meshgrid.
    X = (xmin + (np.arange(n) + 0.5) * dx)[np.newaxis, :]
    Y = (ymin + (np.arange(n) + 0.5) * dy)[:, np.newaxis]

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
