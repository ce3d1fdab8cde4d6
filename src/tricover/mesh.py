"""Triangulated meshes over the stationary sensors of a field.

The mesh is a Delaunay triangulation of the stationary sensor positions,
canonicalized so that repeated runs over the same field produce an
identical structure: each triangle's vertex ids are sorted ascending,
triangles are ordered lexicographically by that id triple, and cell ids
number them in that order.

The cells are held as arrays: ``cells[i]`` is the id triple of cell ``i``,
and the geometry columns hold its vertices in the same order, its sides,
area and degeneracy. Detection reads the columns alone; no per-cell object
is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot

import numpy as np
from scipy.spatial import Delaunay
from scipy.spatial import QhullError

from .errors import DuplicateSiteError, InsufficientSitesError
from .field import Sensor, SensorField
from .geometry import _DEGENERACY_FACTOR, _mapped


@dataclass(frozen=True, eq=False)
class TriMesh:
    """A canonical triangulation over a field's stationary sensors.

    ``sites`` are sorted by id. ``cells`` is a ``(T, 3)`` array of sensor
    ids, of an integer dtype or, when no integer dtype holds them all, of
    Python ints, each row ascending and the rows in lexicographic order; cell
    ``i`` is row ``i``. The geometry of the cells is held as columns, each
    value bit-identical to the tests' scalar ``triangle_from_vertices``
    (``tests/fields.py``) of the cell's three positions, in the same vertex
    order: ``xy[i]`` the ``(3, 2)`` vertex coordinates, ``sides[i]`` the
    sides ``a, b, c``, ``area[i]`` and ``degenerate[i]``. Every array is
    read-only.
    """

    sites: tuple[Sensor, ...]
    cells: np.ndarray
    xy: np.ndarray
    sides: np.ndarray
    area: np.ndarray
    degenerate: np.ndarray

    def summary(self) -> dict:
        return {"sites": len(self.sites), "triangles": len(self.cells)}


def _columns(xy: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vertex coordinates, sides, area and degeneracy of every row of
    indices into the site coordinates ``xy``, a column at a time.

    This is the package's one triangle-geometry path: ``triangulate`` runs
    it on every cell, and plan on the rows of the holes it serves. Each
    column repeats the float operations of the tests' scalar
    ``triangle_from_vertices`` (``tests/fields.py``) in its order, so every
    value is bit-identical.
    """
    verts = xy[rows]  # (T, 3, 2)
    p1, p2, p3 = verts[:, 0], verts[:, 1], verts[:, 2]
    d23, d13, d12 = p2 - p3, p1 - p3, p1 - p2
    sides = np.stack([_mapped(hypot, d[:, 0], d[:, 1]) for d in (d23, d13, d12)], axis=1)
    a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
    e2, e3 = p2 - p1, p3 - p1
    area = 0.5 * np.abs(e2[:, 0] * e3[:, 1] - e2[:, 1] * e3[:, 0])
    longest = np.maximum(np.maximum(a, b), c)
    degenerate = (longest <= 0.0) | (area < _DEGENERACY_FACTOR * longest * longest)
    columns = (verts, sides, area, degenerate)
    for col in columns:
        col.flags.writeable = False
    return columns


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
    ids = np.array([s.id for s in sites])
    if ids.dtype.kind == "f":  # ids of mixed widths, which no integer dtype holds
        ids = np.array([s.id for s in sites], dtype=object)
    cells = ids[rows]
    cells.flags.writeable = False
    return TriMesh(sites, cells, *_columns(points, rows))
