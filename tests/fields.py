"""Test fields from plain tuples, one-cell-per-triangle meshes and back,
and the route and hole area production gives one triangle."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from tricover import (
    HoleComputation,
    MobileSensor,
    Point,
    Sensor,
    SensorField,
    TriangleGeom,
    TriMesh,
    detect_holes,
    hole_area,
)


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
    return hole_area(cell_xy(tri), tri.area, radius).s_h
