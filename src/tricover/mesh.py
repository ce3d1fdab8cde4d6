"""Triangulated meshes over the stationary sensors of a field.

The mesh is a Delaunay triangulation of the stationary sensor positions,
canonicalized so that repeated runs over the same field produce an
identical structure: each triangle's vertex ids are sorted ascending,
triangles are ordered lexicographically by that id triple, and cell ids
number them in that order.

The cells are held as arrays: ``cells[i]`` is the id triple of cell ``i``
and ``geoms[i]`` its geometry, with the vertices in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot

import numpy as np
from scipy.spatial import Delaunay
from scipy.spatial import QhullError

from .errors import DuplicateSiteError, InsufficientSitesError
from .field import Sensor, SensorField
from .geometry import _DEGENERACY_FACTOR, Point, TriangleGeom


@dataclass(frozen=True, eq=False)
class TriMesh:
    """A canonical triangulation over a field's stationary sensors.

    ``sites`` are sorted by id. ``cells`` is a read-only ``(T, 3)`` int
    array of sensor ids, each row ascending and the rows in lexicographic
    order; cell ``i`` is row ``i``. ``geoms[i]`` is the geometry of cell
    ``i``, equal to ``triangle_from_vertices`` of its three positions.
    """

    sites: tuple[Sensor, ...]
    cells: np.ndarray
    geoms: tuple[TriangleGeom, ...]

    def summary(self) -> dict:
        return {"sites": len(self.sites), "triangles": len(self.cells)}


def _geoms(
    positions: list[Point], xy: np.ndarray, rows: np.ndarray
) -> tuple[TriangleGeom, ...]:
    """``triangle_from_vertices`` of every row of indices into ``positions``
    (whose coordinates ``xy`` holds), a column at a time.

    Each column repeats that function's float operations in its order, so
    every field is bit-identical. The sides use ``math.hypot``, whose
    rounding ``np.hypot`` does not always match.
    """
    p1, p2, p3 = xy[rows[:, 0]], xy[rows[:, 1]], xy[rows[:, 2]]
    d23, d13, d12 = p2 - p3, p1 - p3, p1 - p2
    a = np.array(list(map(hypot, d23[:, 0].tolist(), d23[:, 1].tolist())))
    b = np.array(list(map(hypot, d13[:, 0].tolist(), d13[:, 1].tolist())))
    c = np.array(list(map(hypot, d12[:, 0].tolist(), d12[:, 1].tolist())))
    e2, e3 = p2 - p1, p3 - p1
    area = 0.5 * np.abs(e2[:, 0] * e3[:, 1] - e2[:, 1] * e3[:, 0])
    longest = np.maximum(np.maximum(a, b), c)
    degenerate = (longest <= 0.0) | (area < _DEGENERACY_FACTOR * longest * longest)
    s = 0.5 * (a + b + c)
    return tuple(
        map(
            TriangleGeom,
            [(positions[i], positions[j], positions[k]) for i, j, k in rows.tolist()],
            a.tolist(),
            b.tolist(),
            c.tolist(),
            s.tolist(),
            area.tolist(),
            degenerate.tolist(),
        )
    )


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
    positions = [s.position for s in sites]
    points = np.array(positions, dtype=float)
    try:
        delaunay = Delaunay(points)
    except QhullError as exc:  # the first line names the fault; the rest is Qhull's report
        first_line = str(exc).partition("\n")[0].rstrip()
        raise InsufficientSitesError(f"triangulation failed: {first_line}") from exc

    # Sites are sorted by id, so ordering site indices orders the ids.
    rows = np.sort(delaunay.simplices, axis=1)
    rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
    cells = np.array([s.id for s in sites])[rows]
    cells.flags.writeable = False
    return TriMesh(sites=sites, cells=cells, geoms=_geoms(positions, points, rows))
