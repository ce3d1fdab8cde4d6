"""Triangulated meshes over the stationary sensors of a field.

The mesh is a Delaunay triangulation of the stationary sensor positions,
canonicalized so that repeated runs over the same field produce an
identical structure: each triangle's vertex ids are sorted ascending,
triangles are ordered lexicographically by that id triple, and cell ids
number them in that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay
from scipy.spatial import QhullError

from .errors import DuplicateSiteError, InsufficientSitesError
from .field import Sensor, SensorField
from .geometry import TriangleGeom, triangle_from_vertices


@dataclass(frozen=True)
class TriangleCell:
    """One mesh triangle: a cell id, its sensor ids, and its geometry.

    ``sensor_ids`` is sorted ascending and ``geom.vertices`` follows the
    same order.
    """

    id: int
    sensor_ids: tuple[int, int, int]
    geom: TriangleGeom


@dataclass(frozen=True)
class TriMesh:
    """A canonical triangulation over a field's stationary sensors."""

    sites: tuple[Sensor, ...]
    cells: tuple[TriangleCell, ...]

    def summary(self) -> dict:
        return {"sites": len(self.sites), "triangles": len(self.cells)}


def triangulate(field: SensorField) -> TriMesh:
    """Delaunay-triangulate the stationary sensors of ``field``.

    Raises ``insufficient-sites`` for fewer than three sites or a layout
    that Qhull finds flat (collinear, or nearly so), and ``duplicate-site``
    (naming the ids) when two stationary sensors share exact coordinates.
    """
    sites = tuple(sorted(field.stationary, key=lambda s: s.id))
    if len(sites) < 3:
        raise InsufficientSitesError(
            f"triangulation needs at least 3 sites, got {len(sites)}"
        )
    seen: dict[tuple[float, float], int] = {}
    for s in sites:
        key = (s.position.x, s.position.y)
        if key in seen:
            raise DuplicateSiteError(
                f"sensors {seen[key]} and {s.id} share position {key}"
            )
        seen[key] = s.id
    points = np.array([[s.position.x, s.position.y] for s in sites])
    try:
        delaunay = Delaunay(points)
    except QhullError as exc:  # the first line names the fault; the rest is Qhull's report
        first_line = str(exc).partition("\n")[0].rstrip()
        raise InsufficientSitesError(f"triangulation failed: {first_line}") from exc

    triples = sorted(
        tuple(sorted(sites[i].id for i in simplex))
        for simplex in delaunay.simplices
    )
    by_id = {s.id: s.position for s in sites}
    cells = tuple(
        TriangleCell(
            id=idx,
            sensor_ids=triple,
            geom=triangle_from_vertices(*(by_id[i] for i in triple)),
        )
        for idx, triple in enumerate(triples)
    )
    return TriMesh(sites=sites, cells=cells)

