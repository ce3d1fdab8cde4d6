"""Independent area oracles for the tests.

The geometry under test gives each triangle's covered area exactly; these
functions measure the same areas another way, so the tests can check one
against the other:

- ``triangle_disks_covered_area``: the exact boundary integral over any
  disks, and ``uncovered_by_vertex_disks``, a triangle's area outside its
  three vertex disks by it, the reference the exact route
  (``holes.hole_area``) must match bit for bit;
- ``triangle_disk_intersection_area``: a single-disk boundary integral, the
  reference for the single-disk case of ``triangle_disks_covered_area``;
- ``grid_region_uncovered``: a grid rasterizer that decides coverage by
  plain distance comparisons at cell centres;
- ``case_label``: a triangle's case label from its three sides, one side at
  a time, the reference for the detect kernel's label table;
- ``lens_area`` and ``case_value``: the two-disk lens and the closed-form
  case formula one triangle at a time, the scalar reference the detect
  kernel's case formula must match bit for bit;
- ``case_formula_validity``: the case formula's validity predicate one
  triangle at a time, the scalar reference the detect kernel's route
  (``holes._case_route``, which holds the containment proof) must match
  bit for bit;
- ``circumcenter`` and ``incenter``: a triangle's two patch points one
  triangle at a time, the scalar reference plan's center columns
  (``pipeline._centers``) must match bit for bit; ``centers`` gives both
  points, as ``select_target`` takes them;
- ``select_target``: the target rule and its clamp one hole at a time, the
  scalar reference plan's target columns (``healing.select_targets``) must
  match bit for bit.

They import only data types and the error classes from ``tricover``, and
the test triangle ``TriangleGeom`` with its coordinate check from
``tests/fields.py``, and keep their own copies of the small helpers they
need, so they share no computation with the code they check.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import acos, atan2, cos, hypot, isfinite, pi, sin, sqrt
from typing import Sequence

import numpy as np

from fields import TriangleGeom, _require_finite
from tricover import DegenerateGeometryError, InvalidInputError, Point

_MIN_GRID_RESOLUTION = 16
# |d - 2R| <= _TANGENCY_FACTOR * R counts as a tangent (zero-lens) pair.
_TANGENCY_FACTOR = 1e-9
# Slack for the validity predicate's containment comparisons.
_PREDICATE_SLACK = 1e-12

_TWO_PI = 2.0 * pi


def _clamp01(v: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if v < lo else hi if v > hi else v


def _ccw_vertices(tri: TriangleGeom) -> tuple[Point, Point, Point]:
    p1, p2, p3 = tri.vertices
    if (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x) < 0.0:
        return p1, p3, p2
    return p1, p2, p3


def triangle_disk_intersection_area(
    tri: TriangleGeom, center: Point, radius: float
) -> float:
    """Exact area of ``triangle ∩ disk``.

    Per-edge boundary integration: portions of an edge inside the disk
    contribute straight-line terms, portions outside contribute the arc
    subtended at the disk center. Degenerate triangles have zero area.
    """
    if radius < 0:
        raise InvalidInputError(f"radius must be >= 0, got {radius}")
    center = Point(*center)
    _require_finite(center)
    if tri.degenerate or radius == 0.0:
        return 0.0
    verts = _ccw_vertices(tri)
    total = 0.0
    for i in range(3):
        u, v = verts[i], verts[(i + 1) % 3]
        total += _edge_disk_term(
            u.x - center.x, u.y - center.y, v.x - center.x, v.y - center.y, radius
        )
    cap = min(tri.area, pi * radius * radius)
    return _clamp01(total, 0.0, cap)


def _edge_disk_term(ax: float, ay: float, bx: float, by: float, R: float) -> float:
    """Contribution of directed segment a→b to the disk-at-origin boundary
    integral: chord (triangle) terms inside the disk, sector terms outside."""

    def tri_term(x1: float, y1: float, x2: float, y2: float) -> float:
        return 0.5 * (x1 * y2 - y1 * x2)

    def arc_term(x1: float, y1: float, x2: float, y2: float) -> float:
        ang = atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
        return 0.5 * R * R * ang

    dx, dy = bx - ax, by - ay
    A = dx * dx + dy * dy
    if A == 0.0:
        return 0.0
    B = ax * dx + ay * dy
    C = ax * ax + ay * ay - R * R
    disc = B * B - A * C
    if disc <= 0.0:
        return arc_term(ax, ay, bx, by)
    sq = sqrt(disc)
    t1 = (-B - sq) / A
    t2 = (-B + sq) / A
    if t2 <= 0.0 or t1 >= 1.0:
        return arc_term(ax, ay, bx, by)
    ta = t1 if t1 > 0.0 else 0.0
    tb = t2 if t2 < 1.0 else 1.0
    pax, pay = ax + ta * dx, ay + ta * dy
    pbx, pby = ax + tb * dx, ay + tb * dy
    total = tri_term(pax, pay, pbx, pby)
    if ta > 0.0:
        total += arc_term(ax, ay, pax, pay)
    if tb < 1.0:
        total += arc_term(pbx, pby, bx, by)
    return total


# ---------------------------------------------------------------------------
# Triangle ∩ (union of disks): exact boundary integral.
#
# The covered region's boundary consists of (a) sub-intervals of the triangle
# edges lying inside at least one disk and (b) arcs of each circle lying
# inside the triangle and outside every other disk. Both piece families are
# 1-D interval computations; Green's theorem turns them into areas.
# ---------------------------------------------------------------------------


def triangle_disks_covered_area(
    tri: TriangleGeom, disks: Sequence[tuple[Point, float]]
) -> float:
    """Exact area of ``triangle ∩ (disk_1 ∪ ... ∪ disk_n)``.

    Degenerate triangles and empty disk lists give zero. The tests check
    it against a single-disk boundary integral and a grid rasterizer
    (``tests/oracles.py``).

    Angle sets are sorted lists of ``(lo, hi)`` intervals on ``[0, 2*pi]``.
    An arc of length in ``(0, 2*pi)`` starting at angle ``lo`` is one
    interval, or two when it wraps past ``2*pi``. Two sets intersect
    piece by piece, keeping the pieces of positive length.
    """
    if tri.degenerate:
        return 0.0
    circles = []
    for center, radius in disks:
        if radius < 0:
            raise InvalidInputError(f"radius must be >= 0, got {radius}")
        if radius > 0.0:
            p = Point(*center)
            _require_finite(p)
            circles.append((p.x, p.y, float(radius)))
    if not circles:
        return 0.0
    verts = _ccw_vertices(tri)

    # Each directed edge of the CCW triangle: its start and direction, and
    # the line through it as its outward unit normal (right of travel), the
    # normal's angle and the line's offset.
    edges = []
    lines = []
    for i in range(3):
        u, v = verts[i], verts[(i + 1) % 3]
        ex, ey = v.x - u.x, v.y - u.y
        elen = hypot(ex, ey)
        nx, ny = ey / elen, -ex / elen
        edges.append((u.x, u.y, ex, ey))
        lines.append((nx, ny, atan2(ny, nx), nx * u.x + ny * u.y))

    total = 0.0

    # (a) Triangle-edge pieces inside the union of disks: spans of the edge
    # parameter t in [0, 1], merged where they overlap or touch.
    for ux, uy, dx, dy in edges:
        A = dx * dx + dy * dy
        spans = []
        for cx, cy, R in circles:
            wx, wy = ux - cx, uy - cy
            B = wx * dx + wy * dy
            C = wx * wx + wy * wy - R * R
            disc = B * B - A * C
            if disc <= 0.0:
                continue
            sq = sqrt(disc)
            t1 = (-B - sq) / A
            if t1 < 0.0:
                t1 = 0.0
            t2 = (-B + sq) / A
            if t2 > 1.0:
                t2 = 1.0
            if t2 > t1:
                spans.append((t1, t2))
        spans.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            x1, y1 = ux + lo * dx, uy + lo * dy
            x2, y2 = ux + hi * dx, uy + hi * dy
            total += 0.5 * (x1 * y2 - y1 * x2)

    # (b) Circle arcs inside the triangle and outside every other disk.
    for k, (cx, cy, R) in enumerate(circles):
        # Inside the triangle: in each edge's inner half-plane, the angles
        # theta with cos(theta - phi) <= s.
        inside = [(0.0, _TWO_PI)]
        for nx, ny, phi, off in lines:
            s = (off - (nx * cx + ny * cy)) / R
            if s >= 1.0:
                continue  # the whole circle: the set is unchanged
            if s <= -1.0:
                inside = []
                break
            alpha = acos(s)  # in (0, pi): the arc's length lies in (0, 2*pi)
            lo = (phi + alpha) % _TWO_PI
            hi = lo + (_TWO_PI - 2.0 * alpha)
            arc = [(lo, hi)] if hi <= _TWO_PI else [(0.0, hi - _TWO_PI), (lo, _TWO_PI)]
            cut = []
            for a0, a1 in inside:
                for b0, b1 in arc:
                    lo = b0 if b0 > a0 else a0
                    hi = b1 if b1 < a1 else a1
                    if hi > lo:
                        cut.append((lo, hi))
            cut.sort()
            inside = cut
            if not inside:
                break
        if not inside:
            continue

        # Inside another disk: the arc of angle 2*beta about the direction
        # of its center, the whole circle, or nothing.
        covered = []
        for j, (ox, oy, Ro) in enumerate(circles):
            if j == k:
                continue
            dx, dy = ox - cx, oy - cy
            D = hypot(dx, dy)
            if D == 0.0:
                # Of identical circles, only the first keeps its boundary.
                if R < Ro or (R == Ro and j < k):
                    covered.append((0.0, _TWO_PI))
                continue
            w = (D * D + R * R - Ro * Ro) / (2.0 * R * D)
            if w <= -1.0:
                covered.append((0.0, _TWO_PI))
                continue
            if w >= 1.0:
                continue
            beta = acos(w)  # in (0, pi), as alpha above
            lo = (atan2(dy, dx) - beta) % _TWO_PI
            hi = lo + 2.0 * beta
            if hi <= _TWO_PI:
                covered.append((lo, hi))
            else:
                covered += ((0.0, hi - _TWO_PI), (lo, _TWO_PI))
        # The exposed angles are the gaps between the covered arcs.
        covered.sort()
        gaps = []
        end = 0.0
        for lo, hi in covered:
            if lo > end:
                gaps.append((end, lo))
            if hi > end:
                end = hi
        if end < _TWO_PI:
            gaps.append((end, _TWO_PI))

        exposed = []
        for a0, a1 in inside:
            for b0, b1 in gaps:
                lo = b0 if b0 > a0 else a0
                hi = b1 if b1 < a1 else a1
                if hi > lo:
                    exposed.append((lo, hi))
        exposed.sort()
        for th1, th2 in exposed:
            total += 0.5 * (
                R * cx * (sin(th2) - sin(th1))
                - R * cy * (cos(th2) - cos(th1))
                + R * R * (th2 - th1)
            )

    return min(max(total, 0.0), tri.area)


def uncovered_by_vertex_disks(tri: TriangleGeom, radius: float) -> float:
    """The area of ``tri`` outside disks of ``radius`` at its three
    vertices, by ``triangle_disks_covered_area``: the exact route's
    reference, which ``holes.hole_area`` matches bit for bit."""
    return tri.area - triangle_disks_covered_area(tri, [(v, radius) for v in tri.vertices])


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

    # Each edge expression e is tested as ``e >= 0`` on a counter-clockwise
    # triangle and as ``e <= 0`` on a clockwise one, the same test as
    # ``-e >= 0`` since negation is exact.
    orient = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    side = np.greater_equal if orient >= 0.0 else np.less_equal
    inside = side((x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1), 0.0)
    inside &= side((x3 - x2) * (Y - y2) - (y3 - y2) * (X - x2), 0.0)
    inside &= side((x1 - x3) * (Y - y3) - (y1 - y3) * (X - x3), 0.0)

    # A disk is tested only on the box of the columns and rows whose own
    # term passes, ``(X - cx) ** 2 <= r * r`` and ``(Y - cy) ** 2 <= r * r``.
    # No centre outside the box passes: a rounded sum of two non-negative
    # terms is at least each term. Inside the box the arithmetic is the full
    # grid's, element for element, so every count is unchanged.
    covered = np.zeros_like(inside)
    for center, radius in disks:
        if radius < 0:
            raise InvalidInputError(f"radius must be >= 0, got {radius}")
        cx, cy = center
        rr = radius * radius
        cols = np.flatnonzero((X[0] - cx) ** 2 <= rr)
        rows = np.flatnonzero((Y[:, 0] - cy) ** 2 <= rr)
        if cols.size == 0 or rows.size == 0:
            continue
        c0, c1, r0, r1 = cols[0], cols[-1] + 1, rows[0], rows[-1] + 1
        covered[r0:r1, c0:c1] |= (X[:, c0:c1] - cx) ** 2 + (Y[r0:r1] - cy) ** 2 <= rr
    uncovered_cells = int(np.count_nonzero(inside & ~covered))
    return uncovered_cells * dx * dy


def case_label(tri: TriangleGeom, radius: float, covered: bool) -> str:
    """The case label of a triangle (one of ``files.CASE_LABELS``), given
    whether it is covered: ``F`` if it is, else the letter of its
    overlapping and tangent sides."""
    if covered:
        return "F"
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    lt = sum(1 for d in tri.sides if d < two_r - tol)
    eq = sum(1 for d in tri.sides if abs(d - two_r) <= tol)
    if lt == 0:
        return {3: "B", 2: "C", 1: "H"}.get(eq, "A")
    if lt == 1:
        return "G" if eq >= 1 else "D"
    if lt == 2:
        return "E"
    return "I"


def _segment_signed(radius: float, height: float) -> float:
    """Circular segment area allowing a negative (majority-side) height."""
    ratio = _clamp01(height / radius)
    radicand = radius * radius - height * height
    if radicand < 0.0:
        radicand = 0.0
    return radius * radius * acos(ratio) - height * sqrt(radicand)


def lens_area(R: float, r: float, d: float) -> float:
    """Intersection area of two disks of radii ``R`` and ``r`` at center
    distance ``d``.

    Branches: disjoint (``d >= R + r``) has zero area; containment
    (``d <= |R - r|``, including concentric ``d == 0``) is the smaller
    disk's full area; otherwise the area is the sum of the two circular
    segments cut by the radical chord.
    """
    if R <= 0 or r <= 0:
        raise InvalidInputError(f"radii must be > 0, got R={R}, r={r}")
    if d < 0:
        raise InvalidInputError(f"center distance must be >= 0, got {d}")
    if d <= abs(R - r):
        small = min(R, r)
        return pi * small * small
    if d >= R + r:
        return 0.0
    # x: distance from the first center to the radical chord.
    x = (d * d - r * r + R * R) / (2.0 * d)
    area = _segment_signed(R, x) + _segment_signed(r, d - x)
    if area < 0.0:
        area = 0.0
    return area


def case_value(tri: TriangleGeom, radius: float) -> float:
    """The case formula, unclamped: triangle area minus the vertex sectors
    plus half the lens over each overlapping side, whatever the validity
    predicate says."""
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    total = 0.0  # added in order, as the kernel adds them (``sum`` compensates from 3.12)
    for d in (tri.c, tri.b, tri.a):
        if d < two_r - tol:
            total += 0.5 * lens_area(radius, radius, d)
    return tri.area - 0.5 * pi * radius * radius + total


@dataclass(frozen=True)
class ValidityFlags:
    """The two conditions of the case-formula validity predicate."""

    sectors_contained: bool
    triple_overlap_empty: bool

    def all_hold(self) -> bool:
        return self.sectors_contained and self.triple_overlap_empty


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from ``p`` to the closed segment ``a``–``b``."""
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    seg2 = vx * vx + vy * vy
    if seg2 == 0.0:
        return hypot(wx, wy)
    t = (wx * vx + wy * vy) / seg2
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return hypot(wx - t * vx, wy - t * vy)


def _sectors_contained(tri: TriangleGeom, radius: float) -> bool:
    verts = tri.vertices
    slack = _PREDICATE_SLACK * radius
    if radius > min(tri.sides) + slack:
        return False
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if radius > point_segment_distance(verts[i], verts[j], verts[k]) + slack:
            return False
    return True


def _min_enclosing_radius(tri: TriangleGeom) -> float:
    """Radius of the smallest circle containing all three vertices."""
    a2, b2, c2 = (s * s for s in tri.sides)
    longest2 = max(a2, b2, c2)
    if longest2 >= a2 + b2 + c2 - longest2:  # right or obtuse
        return 0.5 * sqrt(longest2)
    # acute: circumradius via R = abc / (4 * area)
    return (tri.a * tri.b * tri.c) / (4.0 * tri.area)


def case_formula_validity(tri: TriangleGeom, radius: float) -> ValidityFlags:
    """Sector containment and an empty triple overlap, each condition on
    its own, for a triangle that is not degenerate and a radius > 0."""
    if not (isfinite(radius) and radius > 0):
        raise InvalidInputError(f"sensing radius must be > 0, got {radius}")
    if tri.degenerate:
        raise DegenerateGeometryError("triangle is degenerate")
    sectors = _sectors_contained(tri, radius)
    triple_empty = radius <= _min_enclosing_radius(tri) + _PREDICATE_SLACK * radius
    return ValidityFlags(sectors, triple_empty)


def circumcenter(tri: TriangleGeom) -> tuple[Point, float]:
    """Circumcenter and circumradius (equidistant point; may lie outside)."""
    if tri.degenerate:
        raise DegenerateGeometryError("circumcenter of a degenerate triangle")
    p1, p2, p3 = tri.vertices
    bx, by = p2.x - p1.x, p2.y - p1.y
    cx, cy = p3.x - p1.x, p3.y - p1.y
    den = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / den
    uy = (bx * c2 - cx * b2) / den
    return Point(p1.x + ux, p1.y + uy), hypot(ux, uy)


def incenter(tri: TriangleGeom) -> tuple[Point, float]:
    """Incenter and inradius (side-length weighted vertex average)."""
    if tri.degenerate:
        raise DegenerateGeometryError("incenter of a degenerate triangle")
    p1, p2, p3 = tri.vertices
    w = tri.a + tri.b + tri.c
    cx = (tri.a * p1.x + tri.b * p2.x + tri.c * p3.x) / w
    cy = (tri.a * p1.y + tri.b * p2.y + tri.c * p3.y) / w
    return Point(cx, cy), tri.area / tri.s


def centers(tri: TriangleGeom) -> tuple[Point, Point]:
    """The circumcenter and the incenter of ``tri``, the two candidate patch
    points ``select_target`` takes."""
    return circumcenter(tri)[0], incenter(tri)[0]


def select_target(
    hole_area: float,
    circumcenter: Point,
    incenter: Point,
    mobile_radius: float,
    bounds: tuple[float, float],
) -> tuple[str, Point]:
    """The kind and the point of one hole's target: the circumcenter when
    ``hole_area <= pi * R_m**2``, else the incenter, clamped into the
    ``bounds = (w, h)`` rectangle by Python's ``max`` and ``min``."""
    if hole_area <= pi * mobile_radius * mobile_radius:
        kind, point = "circumcenter", circumcenter
    else:
        kind, point = "incenter", incenter
    w, h = bounds
    return kind, Point(min(max(point.x, 0.0), w), min(max(point.y, 0.0), h))
