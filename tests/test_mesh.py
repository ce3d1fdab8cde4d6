"""Triangulation tests: canonical ordering, structural invariants, errors."""
from __future__ import annotations

from math import fsum, hypot, sqrt

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from tricover import (
    DuplicateSiteError,
    InsufficientSitesError,
    InvalidInputError,
    Point,
    Sensor,
    SensorField,
    circumcenter,
    generate_scenario,
    make_field,
    triangulate,
)


def field_from(coords, start_id=0):
    coords = [tuple(map(float, c)) for c in coords]
    span = max((max(x, y) for x, y in coords), default=1.0) + 1.0
    return make_field(
        span, span, 1.0, [(start_id + i, x, y) for i, (x, y) in enumerate(coords)]
    )


def hull_vertex_count(coords):
    """Number of strict convex-hull vertices, by Andrew's monotone chain."""
    pts = sorted(set(coords))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return len(half(pts) + half(list(reversed(pts))))


# --- basic structure ------------------------------------------------------------


def test_unit_square_two_triangles():
    mesh = triangulate(field_from([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert len(mesh.cells) == 2
    assert [c.id for c in mesh.cells] == [0, 1]
    triples = [c.sensor_ids for c in mesh.cells]
    assert all(t == tuple(sorted(t)) for t in triples)
    assert triples == sorted(triples)
    # the two cells tile the square
    assert sum(c.geom.area for c in mesh.cells) == pytest.approx(1.0, rel=1e-12)


def test_single_triangle():
    mesh = triangulate(field_from([(0, 0), (3, 0), (0, 4)]))
    assert len(mesh.cells) == 1
    assert mesh.cells[0].sensor_ids == (0, 1, 2)
    assert mesh.cells[0].geom.area == pytest.approx(6.0)


def test_sites_stored_sorted_by_id():
    field = SensorField(
        width=5.0,
        height=5.0,
        sensing_radius=1.0,
        stationary=(
            Sensor(5, Point(0, 0)),
            Sensor(1, Point(4, 0)),
            Sensor(9, Point(0, 4)),
            Sensor(3, Point(4, 4)),
        ),
    )
    mesh = triangulate(field)
    assert [s.id for s in mesh.sites] == [1, 3, 5, 9]
    for cell in mesh.cells:
        assert cell.sensor_ids == tuple(sorted(cell.sensor_ids))


def test_triangulation_ignores_stationary_listing_order():
    rng = np.random.default_rng(101)
    coords = [tuple(p) for p in rng.uniform(0, 10, size=(40, 2))]
    sensors = tuple(Sensor(i, Point(*c)) for i, c in enumerate(coords))
    field_a = SensorField(11.0, 11.0, 1.0, sensors)
    field_b = SensorField(11.0, 11.0, 1.0, tuple(reversed(sensors)))
    mesh_a = triangulate(field_a)
    mesh_b = triangulate(field_b)
    assert [c.sensor_ids for c in mesh_a.cells] == [c.sensor_ids for c in mesh_b.cells]
    assert mesh_a.cells == mesh_b.cells


# --- Delaunay invariants ----------------------------------------------------------


@pytest.mark.parametrize("seed,n", [(7, 50), (8, 200), (9, 1000)])
def test_empty_circumcircle_property(seed, n):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100, size=(n, 2))
    mesh = triangulate(field_from(coords))
    pos = {s.id: s.position for s in mesh.sites}
    for cell in mesh.cells:
        center, radius = circumcenter(cell.geom)
        slack = 1e-9 * radius
        for s in mesh.sites:
            if s.id in cell.sensor_ids:
                continue
            assert hypot(s.position.x - center.x, s.position.y - center.y) >= (
                radius - slack
            )
    assert all(
        pos[i] in cell.geom.vertices for cell in mesh.cells for i in cell.sensor_ids
    )


@pytest.mark.parametrize("seed,n", [(21, 10), (22, 100), (23, 1000)])
def test_euler_triangle_count(seed, n):
    rng = np.random.default_rng(seed)
    coords = [tuple(p) for p in rng.uniform(0, 50, size=(n, 2))]
    mesh = triangulate(field_from(coords))
    h = hull_vertex_count(coords)
    assert len(mesh.cells) == 2 * n - 2 - h


def test_cells_tile_convex_hull_area():
    rng = np.random.default_rng(31)
    coords = rng.uniform(0, 20, size=(300, 2))
    mesh = triangulate(field_from(coords))
    hull_area = ConvexHull(coords).volume  # 2-d: volume is the area
    assert sum(c.geom.area for c in mesh.cells) == pytest.approx(hull_area, rel=1e-9)


# (stationary sites, mobiles, radius / R*) of the benchmark's three workloads,
# with R* = 10 * sqrt(50 / sites) on a 100 x 100 field.
@pytest.mark.parametrize("seed", [42, 1042])
@pytest.mark.parametrize(
    "n_stationary, n_mobile, radius_factor", [(2000, 50, 1.0), (2000, 50, 0.5), (500, 100, 1.0)]
)
def test_generated_field_cells_sum_to_hull_area(n_stationary, n_mobile, radius_factor, seed):
    radius = radius_factor * 10.0 * sqrt(50.0 / n_stationary)
    doc = generate_scenario(100.0, 100.0, n_stationary, n_mobile, radius, radius, seed)
    mesh = triangulate(doc.field)
    points = [(s.position.x, s.position.y) for s in doc.field.stationary]
    hull_area = ConvexHull(points).volume
    assert fsum(c.geom.area for c in mesh.cells) == pytest.approx(hull_area, rel=1e-12)


def test_no_degenerate_cells_on_random_input():
    rng = np.random.default_rng(37)
    mesh = triangulate(field_from(rng.uniform(0, 5, size=(500, 2))))
    assert not any(c.geom.degenerate for c in mesh.cells)


# --- errors -----------------------------------------------------------------------


def test_too_few_sites():
    with pytest.raises(InsufficientSitesError):
        triangulate(field_from([(0, 0), (1, 1)]))


def test_collinear_sites():
    with pytest.raises(InsufficientSitesError):
        triangulate(field_from([(0, 0), (1, 1), (2, 2), (3, 3)]))


def test_duplicate_coordinates_reports_ids():
    with pytest.raises(DuplicateSiteError) as exc:
        triangulate(field_from([(0, 0), (1, 0), (0, 1), (1, 0)]))
    assert "1" in str(exc.value) and "3" in str(exc.value)


def test_duplicate_ids_rejected_at_field_level():
    with pytest.raises(InvalidInputError):
        SensorField(
            width=2.0,
            height=2.0,
            sensing_radius=1.0,
            stationary=(Sensor(0, Point(0, 0)), Sensor(0, Point(1, 0))),
        )
