"""Closed-form planar geometry for disk coverage analysis.

Everything here is pure and deterministic: triangles, triangle centers,
and exact triangle/disk intersection areas computed by boundary
integration (no sampling). The integral is one function,
``triangle_disks_covered_area``, with its interval and arc arithmetic
written inline: it runs once per exact-route cell, the hot path of
detection.

Angles are radians, lengths are plain floats, areas are length squared.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import acos, atan2, cos, hypot, isfinite, pi, sin, sqrt
from typing import NamedTuple, Sequence

from .errors import DegenerateGeometryError, InvalidInputError

# A triangle is degenerate when area < _DEGENERACY_FACTOR * (longest side)^2.
_DEGENERACY_FACTOR = 1e-12

_TWO_PI = 2.0 * pi


class Point(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


@dataclass(frozen=True)
class TriangleGeom:
    """A triangle with its derived scalar geometry.

    Side ``a`` is opposite ``vertices[0]``, ``b`` opposite ``vertices[1]``,
    ``c`` opposite ``vertices[2]``. ``s`` is the semiperimeter.
    """

    vertices: tuple[Point, Point, Point]
    a: float
    b: float
    c: float
    s: float
    area: float
    degenerate: bool

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def _require_finite(p: Point) -> None:
    if not (isfinite(p.x) and isfinite(p.y)):
        raise InvalidInputError(f"non-finite coordinate: {p!r}")


def triangle_from_vertices(p1: Point, p2: Point, p3: Point) -> TriangleGeom:
    """Build a :class:`TriangleGeom` from three vertices.

    The degeneracy flag is set when the area falls below
    ``1e-12 * (longest side)**2``.
    """
    p1, p2, p3 = Point(*p1), Point(*p2), Point(*p3)
    for p in (p1, p2, p3):
        _require_finite(p)
    a = hypot(p2.x - p3.x, p2.y - p3.y)
    b = hypot(p1.x - p3.x, p1.y - p3.y)
    c = hypot(p1.x - p2.x, p1.y - p2.y)
    area = 0.5 * abs(
        (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x)
    )
    longest = max(a, b, c)
    degenerate = longest <= 0.0 or area < _DEGENERACY_FACTOR * longest * longest
    return TriangleGeom(
        vertices=(p1, p2, p3),
        a=a,
        b=b,
        c=c,
        s=0.5 * (a + b + c),
        area=area,
        degenerate=degenerate,
    )


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


def _ccw_vertices(tri: TriangleGeom) -> tuple[Point, Point, Point]:
    p1, p2, p3 = tri.vertices
    if (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x) < 0.0:
        return p1, p3, p2
    return p1, p2, p3


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
