"""Closed-form planar geometry: triangles and triangle centers.

Everything here is pure and deterministic. The exact area a triangle's
vertex disks cover is computed where detection uses it, on the mesh's
columns (``holes.hole_area``); the general n-disk integral it specialises
is the tests' reference (``tests/oracles.py``).

Lengths are plain floats, areas are length squared.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite
from typing import NamedTuple

from .errors import DegenerateGeometryError, InvalidInputError

# A triangle is degenerate when area < _DEGENERACY_FACTOR * (longest side)^2.
_DEGENERACY_FACTOR = 1e-12


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
