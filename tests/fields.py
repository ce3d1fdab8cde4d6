"""Test fields from plain tuples; one triangle with its scalar geometry,
the reference for the mesh's columns; one-cell-per-triangle meshes and
back; and the route and hole area production gives one triangle."""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite
from typing import Sequence

import numpy as np

from tricover import (
    HoleComputation,
    InvalidInputError,
    MobileSensor,
    Point,
    Sensor,
    SensorField,
    TriMesh,
    detect_holes,
    hole_area,
)
from tricover.geometry import _DEGENERACY_FACTOR


def make_field(
    width: float,
    height: float,
    sensing_radius: float,
    stationary: Sequence[tuple[int, float, float]],
    mobile: Sequence[tuple[int, float, float, float]] = (),
) -> SensorField:
    """A ``SensorField`` from ``(id, x, y)`` stationary and ``(id, x, y, r)``
    mobile tuples."""
    return SensorField(
        width=width,
        height=height,
        sensing_radius=sensing_radius,
        stationary=tuple(Sensor(i, Point(x, y)) for i, x, y in stationary),
        mobile=tuple(MobileSensor(i, Point(x, y), r) for i, x, y, r in mobile),
    )


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
    """Build a :class:`TriangleGeom` from three vertices, one float at a time:
    the scalar reference ``mesh._columns`` matches bit for bit.

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


def mesh_of(triangles: Sequence[TriangleGeom]) -> TriMesh:
    """A ``TriMesh`` whose cell ``k`` is ``triangles[k]``, on three sites of its own."""
    n = len(triangles)
    return TriMesh(
        sites=tuple(
            Sensor(3 * k + i, v) for k, t in enumerate(triangles) for i, v in enumerate(t.vertices)
        ),
        cells=np.arange(3 * n).reshape(n, 3),
        xy=np.array([[tuple(v) for v in t.vertices] for t in triangles], dtype=float),
        sides=np.array([t.sides for t in triangles], dtype=float),
        area=np.array([t.area for t in triangles]),
        degenerate=np.array([t.degenerate for t in triangles]),
    )


def detect_one(tri: TriangleGeom, radius: float) -> HoleComputation:
    """The hole area and route ``detect_holes`` gives ``tri`` as the one cell of a mesh."""
    reports = detect_holes(mesh_of([tri]), radius)
    return HoleComputation(s_h=reports.hole_area.tolist()[0], method=reports.method.tolist()[0])


def geoms(mesh: TriMesh, ids: Sequence[int] | np.ndarray | None = None) -> list[TriangleGeom]:
    """The ``TriangleGeom`` of each cell of ``mesh`` in ``ids``, every cell if None."""
    rows = slice(None) if ids is None else np.asarray(ids, dtype=np.intp)
    sides = mesh.sides[rows]
    a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
    positions = [s.position for s in mesh.sites]
    # The sites are sorted by id, so an id's index is its rank.
    vertices = np.searchsorted([s.id for s in mesh.sites], mesh.cells[rows])
    return list(
        map(
            TriangleGeom,
            [(positions[i], positions[j], positions[k]) for i, j, k in vertices.tolist()],
            a.tolist(),
            b.tolist(),
            c.tolist(),
            (0.5 * (a + b + c)).tolist(),
            mesh.area[rows].tolist(),
            mesh.degenerate[rows].tolist(),
        )
    )


def cell_xy(tri: TriangleGeom) -> list[float]:
    """The six vertex coordinates of ``tri``, as ``hole_area`` takes a mesh row."""
    return [coord for vertex in tri.vertices for coord in vertex]


def exact_route(tri: TriangleGeom, radius: float) -> float:
    """The hole area of ``tri`` by the exact route, ``hole_area``."""
    return hole_area(cell_xy(tri), radius).s_h
