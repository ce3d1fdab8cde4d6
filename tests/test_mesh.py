"""Triangulation tests: canonical ordering, structural invariants, errors."""
from __future__ import annotations

from math import fsum, hypot, sqrt

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from fields import geoms, make_field, triangle_from_vertices
from oracles import circumcenter
from tricover import (
    DuplicateSiteError,
    InsufficientSitesError,
    InvalidInputError,
    Point,
    Sensor,
    SensorField,
    generate_scenario,
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
    assert mesh.cells.shape == (2, 3) and len(geoms(mesh)) == 2
    triples = mesh.cells.tolist()
    assert all(t == sorted(t) for t in triples)
    assert triples == sorted(triples)
    # the two cells tile the square
    assert sum(g.area for g in geoms(mesh)) == pytest.approx(1.0, rel=1e-12)


def test_single_triangle():
    mesh = triangulate(field_from([(0, 0), (3, 0), (0, 4)]))
    assert np.array_equal(mesh.cells, [[0, 1, 2]]) and len(geoms(mesh)) == 1
    assert geoms(mesh)[0].area == pytest.approx(6.0)


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
    for triple in mesh.cells.tolist():
        assert triple == sorted(triple)


def test_triangulation_ignores_stationary_listing_order():
    rng = np.random.default_rng(101)
    coords = [tuple(p) for p in rng.uniform(0, 10, size=(40, 2))]
    sensors = tuple(Sensor(i, Point(*c)) for i, c in enumerate(coords))
    field_a = SensorField(11.0, 11.0, 1.0, sensors)
    field_b = SensorField(11.0, 11.0, 1.0, tuple(reversed(sensors)))
    mesh_a = triangulate(field_a)
    mesh_b = triangulate(field_b)
    assert np.array_equal(mesh_a.cells, mesh_b.cells)
    assert geoms(mesh_a) == geoms(mesh_b)


# --- Delaunay invariants ----------------------------------------------------------


@pytest.mark.parametrize("seed,n", [(7, 50), (8, 200), (9, 1000)])
def test_empty_circumcircle_property(seed, n):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100, size=(n, 2))
    mesh = triangulate(field_from(coords))
    pos = {s.id: s.position for s in mesh.sites}
    for triple, geom in zip(mesh.cells.tolist(), geoms(mesh)):
        center, radius = circumcenter(geom)
        slack = 1e-9 * radius
        for s in mesh.sites:
            if s.id in triple:
                continue
            assert hypot(s.position.x - center.x, s.position.y - center.y) >= (
                radius - slack
            )
    assert all(
        pos[i] in geom.vertices
        for triple, geom in zip(mesh.cells.tolist(), geoms(mesh))
        for i in triple
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
    assert sum(g.area for g in geoms(mesh)) == pytest.approx(hull_area, rel=1e-9)


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
    assert fsum(g.area for g in geoms(mesh)) == pytest.approx(hull_area, rel=1e-12)


def test_no_degenerate_cells_on_random_input():
    rng = np.random.default_rng(37)
    mesh = triangulate(field_from(rng.uniform(0, 5, size=(500, 2))))
    assert not any(g.degenerate for g in geoms(mesh))


# --- array columns against the scalar constructor -----------------------------------


def _geom_fields(geom):
    """Every field of a ``TriangleGeom``, floats as ``float.hex``."""
    def bits(v):
        return v.hex() if type(v) is float else v

    return (
        tuple((bits(p.x), bits(p.y)) for p in geom.vertices),
        *(bits(v) for v in (geom.a, geom.b, geom.c, geom.s, geom.area)),
        geom.degenerate,
    )


def _mesh_check_fields():
    """Seeded fields of the benchmark's three workload shapes at reduced
    sizes, a field with unsorted, non-contiguous ids, and a field whose hull
    holds a degenerate sliver; each with its number of degenerate cells."""
    for n_stationary, n_mobile, radius_factor in ((400, 10, 1.0), (400, 10, 0.5), (100, 20, 1.0)):
        radius = radius_factor * 10.0 * sqrt(50.0 / n_stationary)
        yield generate_scenario(100.0, 100.0, n_stationary, n_mobile, radius, radius, 1701).field, 0
    rng = np.random.default_rng(1702)
    ids = rng.permutation(np.arange(0, 3000, 7))[:300].tolist()
    coords = rng.uniform(0, 50, size=(300, 2)).tolist()
    yield make_field(51.0, 51.0, 1.0, [(i, x, y) for i, (x, y) in zip(ids, coords)]), 0
    yield field_from([(0, 0), (10, 0), (5, 1e-11), (5, 5)]), 1


@pytest.mark.parametrize(
    "field, degenerate_cells",
    list(_mesh_check_fields()),
    ids=["dense-shape", "sparse-shape", "verify-heavy-shape", "unsorted-ids", "hull-sliver"],
)
def test_mesh_columns_match_scalar_constructor(field, degenerate_cells):
    mesh = triangulate(field)
    sites = sorted(field.stationary, key=lambda s: s.id)
    points = np.array([[s.position.x, s.position.y] for s in sites])
    triples = sorted(
        tuple(sorted(sites[i].id for i in simplex)) for simplex in Delaunay(points).simplices
    )
    assert mesh.cells.tolist() == [list(t) for t in triples]
    assert not mesh.cells.flags.writeable
    by_id = {s.id: s.position for s in sites}
    assert len(geoms(mesh)) == len(triples)
    for triple, geom, xy in zip(triples, geoms(mesh), mesh.xy.tolist()):
        expected = triangle_from_vertices(*(by_id[i] for i in triple))
        assert _geom_fields(geom) == _geom_fields(expected)
        assert [(x.hex(), y.hex()) for x, y in xy] == [(p.x.hex(), p.y.hex()) for p in expected.vertices]
    assert sum(g.degenerate for g in geoms(mesh)) == degenerate_cells


# --- errors -----------------------------------------------------------------------


def test_too_few_sites():
    with pytest.raises(InsufficientSitesError):
        triangulate(field_from([(0, 0), (1, 1)]))


def test_collinear_sites():
    # exactly collinear: diagonal, horizontal, vertical, 50 sites on y = 2x;
    # then a third site 1e-15 off the line through the other two
    for coords in (
        [(0, 0), (1, 1), (2, 2), (3, 3)],
        [(0, 2), (1, 2), (2, 2), (3, 2)],
        [(2, 0), (2, 1), (2, 2), (2, 3)],
        [(x, 2 * x) for x in range(50)],
        [(0, 0), (10, 0), (5, 1e-15)],
    ):
        with pytest.raises(InsufficientSitesError, match="^triangulation failed: QH") as exc:
            triangulate(field_from(coords))
        assert "\n" not in str(exc.value)


def test_exactly_collinear_sweep_is_refused():
    """Qhull alone refuses flat layouts: 200 seeded layouts of 3 to 500
    distinct sites on lines of exact rational slope p/q, horizontal and
    vertical ones included, at dyadic spacings so every coordinate is exact."""
    rng = np.random.default_rng(1402)
    for k in range(200):
        if k % 4 < 2:
            p, q = ((0, 1), (1, 0))[k % 2]
        else:
            p, q = int(rng.integers(-50, 51)), int(rng.integers(1, 51))
        step = 2.0 ** int(rng.integers(-6, 1))
        steps = rng.choice(2001, size=int(rng.integers(3, 501)), replace=False)
        offset = 2000 * max(-p, 0)  # keeps y >= 0 on falling lines
        coords = [(q * t * step, (p * t + offset) * step) for t in steps.tolist()]
        with pytest.raises(InsufficientSitesError, match="^triangulation failed: QH"):
            triangulate(field_from(coords))


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
