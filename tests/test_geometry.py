"""Geometry kernel tests: golden values, properties, and oracle checks,
also of the scalar triangle and centers the tests take as references."""
from __future__ import annotations

from math import hypot, nextafter, pi, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fields import make_field, triangle_from_vertices
from oracles import (
    circumcenter,
    grid_region_uncovered,
    incenter,
    lens_area,
    triangle_disk_intersection_area,
    triangle_disks_covered_area,
)
from tricover import (
    DegenerateGeometryError,
    InvalidInputError,
    Point,
    mc_coverage_fraction,
)


def tri(*pts):
    return triangle_from_vertices(*(Point(*p) for p in pts))


def random_triangle(rng, span=4.0, min_shape=0.05):
    """A non-sliver random triangle."""
    while True:
        pts = rng.uniform(0.0, span, size=(3, 2))
        t = tri(*pts)
        if not t.degenerate and t.area >= min_shape * max(t.sides) ** 2:
            return t


# --- triangle_from_vertices ---------------------------------------------------


def test_heron_matches_vertex_area_on_random_triangles():
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = random_triangle(rng)
        a, b, c = t.sides
        s = 0.5 * (a + b + c)
        heron = sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))
        assert heron == pytest.approx(t.area, rel=1e-9, abs=1e-12)


def test_triangle_sides_and_angles():
    t = tri((0, 0), (4, 0), (0, 3))
    assert sorted((t.a, t.b, t.c)) == pytest.approx([3.0, 4.0, 5.0])
    assert t.area == pytest.approx(6.0)
    assert t.s == pytest.approx(6.0)
    assert not t.degenerate


def test_triangle_degeneracy_flag():
    assert tri((0, 0), (1, 1), (2, 2)).degenerate
    assert tri((0, 0), (1, 0), (2, 1e-14)).degenerate
    assert not tri((0, 0), (1, 0), (0.5, 0.01)).degenerate


def test_triangle_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        tri((0, 0), (1, 0), (float("nan"), 1))


# --- lens_area (the oracle's) --------------------------------------------------


def test_lens_golden_values():
    assert lens_area(1, 1, 1) == pytest.approx(2 * pi / 3 - sqrt(3) / 2, abs=1e-9)
    assert lens_area(1, 0.5, 0) == pytest.approx(pi / 4, abs=1e-9)
    assert lens_area(1, 1, 2) == 0.0


def test_lens_containment_and_disjoint_branches():
    assert lens_area(2, 0.5, 1.0) == pytest.approx(pi * 0.25, abs=1e-12)
    assert lens_area(1, 1, 0) == pytest.approx(pi, abs=1e-12)
    assert lens_area(1, 2, 5) == 0.0


def test_lens_chord_construction_fields():
    # equal radii put the radical chord at d/2, which gives the closed form
    # 2R^2 acos(d/2R) - (d/2) sqrt(4R^2 - d^2)
    from math import acos

    closed = 2 * acos(0.75) - 0.75 * sqrt(4 - 2.25)
    assert lens_area(1.0, 1.0, 1.5) == pytest.approx(closed, abs=1e-12)


def test_lens_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        lens_area(0.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        lens_area(1.0, -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        lens_area(1.0, 1.0, -0.5)


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 12.0))
def test_lens_symmetric_in_radii(R, r, d):
    assert lens_area(R, r, d) == pytest.approx(
        lens_area(r, R, d), rel=1e-12, abs=1e-12
    )


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_lens_continuous_at_branch_points(R, r):
    eps = 1e-12
    scale = (R + r) ** 2
    at_contain = lens_area(R, r, abs(R - r))
    near_contain = lens_area(R, r, abs(R - r) + eps)
    assert abs(at_contain - near_contain) < 1e-7 * scale
    at_disjoint = lens_area(R, r, R + r)
    near_disjoint = lens_area(R, r, R + r - eps)
    assert at_disjoint == 0.0
    assert near_disjoint < 1e-7 * scale


def test_lens_non_increasing_in_distance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        R, r = rng.uniform(0.2, 3.0, size=2)
        ds = np.sort(rng.uniform(0.0, R + r + 1.0, size=10))
        areas = [lens_area(R, r, float(d)) for d in ds]
        for lo, hi in zip(areas, areas[1:]):
            assert hi <= lo + 1e-12


def test_lens_matches_monte_carlo_on_random_triples():
    # union(A, B) sampled over a box containing both disks, then
    # lens = area(A) + area(B) - union; within 3 standard errors.
    rng = np.random.default_rng(2024)
    samples = 10**6
    for k in range(100):
        R, r = rng.uniform(0.3, 2.0, size=2)
        d = float(rng.uniform(0.0, (R + r) * 1.1))
        big = max(R, r)
        width = d + 2 * big + 2.0
        height = 2 * big + 2.0
        c1 = (big + 1.0, height / 2)
        c2 = (big + 1.0 + d, height / 2)
        field = make_field(
            width, height, R, [(0, *c1)], [(1, c2[0], c2[1], r)]
        )
        est = mc_coverage_fraction(field, samples, seed=9000 + k)
        union = est.before * width * height
        se_area = sqrt(
            est.before * (1 - est.before) / samples
        ) * width * height
        expected = pi * R * R + pi * r * r - lens_area(R, r, d)
        assert abs(union - expected) <= 3 * se_area + 1e-9


# --- circumcenter / incenter ---------------------------------------------------


def test_circumcenter_golden():
    c, radius = circumcenter(tri((0, 0), (2, 0), (0, 2)))
    assert c == pytest.approx((1.0, 1.0))
    assert radius == pytest.approx(sqrt(2))


def test_equilateral_centers_golden():
    t = tri((0, 0), (1, 0), (0.5, 0.8660254))
    cc, cr = circumcenter(t)
    ic, ir = incenter(t)
    assert cc == pytest.approx((0.5, 0.2886751), abs=1e-6)
    assert cr == pytest.approx(0.5773503, abs=1e-6)
    assert ic == pytest.approx((0.5, 0.2886751), abs=1e-6)
    assert ir == pytest.approx(0.2886751, abs=1e-6)


def test_incenter_345_golden():
    c, r = incenter(tri((0, 0), (4, 0), (0, 3)))
    assert c == pytest.approx((1.0, 1.0), abs=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_centers_reject_degenerate():
    t = tri((0, 0), (1, 1), (2, 2))
    with pytest.raises(DegenerateGeometryError):
        circumcenter(t)
    with pytest.raises(DegenerateGeometryError):
        incenter(t)


def test_center_defining_properties_on_random_triangles():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        t = random_triangle(rng, min_shape=0.02)
        cc, cr = circumcenter(t)
        for v in t.vertices:
            assert hypot(cc.x - v.x, cc.y - v.y) == pytest.approx(cr, rel=1e-9)
        ic, ir = incenter(t)
        for i in range(3):
            a, b = t.vertices[i], t.vertices[(i + 1) % 3]
            ex, ey = b.x - a.x, b.y - a.y
            dist = abs(ex * (ic.y - a.y) - ey * (ic.x - a.x)) / hypot(ex, ey)
            assert dist == pytest.approx(ir, rel=1e-9)


# --- triangle_disk_intersection_area -------------------------------------------


def test_disk_fully_inside_triangle():
    t = tri((0, 0), (10, 0), (0, 10))
    assert triangle_disk_intersection_area(t, Point(2, 2), 1.0) == pytest.approx(
        pi, rel=1e-12
    )


def test_triangle_fully_inside_disk():
    t = tri((0, 0), (1, 0), (0, 1))
    assert triangle_disk_intersection_area(t, Point(0.3, 0.3), 5.0) == pytest.approx(
        0.5, rel=1e-12
    )


def test_quarter_disk_at_right_angle_vertex():
    t = tri((0, 0), (4, 0), (0, 3))
    assert triangle_disk_intersection_area(t, Point(0, 0), 1.0) == pytest.approx(
        pi / 4, rel=1e-12
    )


def test_disjoint_disk():
    t = tri((0, 0), (1, 0), (0, 1))
    assert triangle_disk_intersection_area(t, Point(5, 5), 1.0) == 0.0


def test_degenerate_triangle_and_zero_radius():
    t = tri((0, 0), (1, 1), (2, 2))
    assert triangle_disk_intersection_area(t, Point(0, 0), 1.0) == 0.0
    t2 = tri((0, 0), (1, 0), (0, 1))
    assert triangle_disk_intersection_area(t2, Point(0, 0), 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        triangle_disk_intersection_area(t2, Point(0, 0), -1.0)


def test_intersection_bounded_by_both_areas():
    rng = np.random.default_rng(23)
    for _ in range(300):
        t = random_triangle(rng)
        c = Point(*rng.uniform(-1.0, 5.0, size=2))
        R = float(rng.uniform(0.05, 3.0))
        area = triangle_disk_intersection_area(t, c, R)
        assert 0.0 <= area <= min(t.area, pi * R * R) + 1e-12


def test_intersection_matches_grid_oracle():
    rng = np.random.default_rng(29)
    for _ in range(60):
        t = random_triangle(rng)
        c = Point(*rng.uniform(0.0, 4.0, size=2))
        R = float(rng.uniform(0.3, 2.0))
        exact = triangle_disk_intersection_area(t, c, R)
        # the grid measures uncovered area; covered = area - uncovered
        grid_uncovered = grid_region_uncovered(t, [(c, R)], 512)
        grid_covered = t.area - grid_uncovered
        assert exact == pytest.approx(grid_covered, abs=6e-3 * t.area)


def test_single_disk_union_agrees_with_dedicated_routine():
    rng = np.random.default_rng(31)
    for _ in range(400):
        t = random_triangle(rng)
        c = Point(*rng.uniform(-1.0, 5.0, size=2))
        R = float(rng.uniform(0.05, 3.0))
        a1 = triangle_disk_intersection_area(t, c, R)
        a2 = triangle_disks_covered_area(t, [(c, R)])
        assert a1 == pytest.approx(a2, abs=1e-12 * max(1.0, t.area))


# --- triangle_disks_covered_area ------------------------------------------------


def test_union_empty_disk_list_and_degenerate():
    t = tri((0, 0), (1, 0), (0, 1))
    assert triangle_disks_covered_area(t, []) == 0.0
    bad = tri((0, 0), (1, 1), (2, 2))
    assert triangle_disks_covered_area(bad, [(Point(0, 0), 1.0)]) == 0.0


def test_union_two_separated_disks_adds_up():
    t = tri((0, 0), (10, 0), (0, 10))
    disks = [(Point(2, 2), 0.5), (Point(4, 2), 0.5)]
    assert triangle_disks_covered_area(t, disks) == pytest.approx(
        2 * pi * 0.25, rel=1e-12
    )


def test_union_two_overlapping_disks_subtracts_lens():
    t = tri((0, 0), (10, 0), (0, 10))
    disks = [(Point(3, 2), 1.0), (Point(4.5, 2), 1.0)]
    expected = 2 * pi - lens_area(1, 1, 1.5)
    assert triangle_disks_covered_area(t, disks) == pytest.approx(expected, rel=1e-12)


def test_union_nested_disks_counts_once():
    t = tri((0, 0), (10, 0), (0, 10))
    disks = [(Point(3, 3), 1.0), (Point(3, 3), 0.3)]
    assert triangle_disks_covered_area(t, disks) == pytest.approx(pi, rel=1e-12)


@pytest.mark.parametrize("copies", [2, 3])
def test_union_identical_disks_count_once(copies):
    t = tri((0, 0), (10, 0), (0, 10))
    one = triangle_disks_covered_area(t, [(Point(3, 3), 1.0)])
    assert one == pytest.approx(pi, rel=1e-12)
    assert triangle_disks_covered_area(t, [(Point(3, 3), 1.0)] * copies) == one


def test_union_identical_pair_and_an_overlapping_disk():
    t = tri((0, 0), (10, 0), (0, 10))
    a, b = (Point(3, 2), 1.0), (Point(4.5, 2), 1.0)
    pair = triangle_disks_covered_area(t, [a, b])
    assert pair == pytest.approx(2 * pi - lens_area(1, 1, 1.5), rel=1e-12)
    for disks in ([a, a, b], [a, b, a], [b, a, a]):
        covered = triangle_disks_covered_area(t, disks)
        assert covered == pytest.approx(pair, rel=1e-12)
        grid_uncovered = grid_region_uncovered(t, disks, 512)
        assert t.area - covered == pytest.approx(grid_uncovered, abs=6e-3 * t.area)


def test_union_matches_grid_oracle_on_vertex_disks():
    rng = np.random.default_rng(37)
    for _ in range(60):
        t = random_triangle(rng)
        R = float(rng.uniform(0.2, 0.8)) * max(t.sides)
        disks = [(v, R) for v in t.vertices]
        covered = triangle_disks_covered_area(t, disks)
        grid_uncovered = grid_region_uncovered(t, disks, 512)
        assert t.area - covered == pytest.approx(grid_uncovered, abs=6e-3 * t.area)


def test_union_monotone_in_disk_set():
    rng = np.random.default_rng(41)
    for _ in range(100):
        t = random_triangle(rng)
        disks = [
            (Point(*rng.uniform(0.0, 4.0, size=2)), float(rng.uniform(0.1, 1.5)))
            for _ in range(3)
        ]
        a12 = triangle_disks_covered_area(t, disks[:2])
        a123 = triangle_disks_covered_area(t, disks)
        assert a123 >= a12 - 1e-12


# Bits of the exact integral on inputs that reach each of its branches:
# tangency to an edge line, half-planes that hold the whole circle or none
# of it, arcs that wrap past angle 0, one disk inside another, concentric
# disks, a zero radius, obtuse, right and sliver triangles, and disks off
# the vertices. The values were recorded from the implementation with
# separate interval and arc helpers (commit 16281ae), which this one
# replaced with the same float operations in the same order.
EQUILATERAL = ((0, 0), (2, 0), (1, sqrt(3.0)))
RIGHT = ((0, 0), (10, 0), (0, 10))
FAR = ((10000.125, -7000.5), (10003.0, -7000.25), (10001.0, -6997.75))
TINY = ((0, 0), (3e-6, 0), (1e-6, 2e-6))


def at_vertices(vertices, *radii):
    return [(v, r) for v, r in zip(vertices, radii * 3 if len(radii) == 1 else radii)]


PINNED_COVERED_AREA = [
    # name, triangle, disks as ((x, y), radius), float.hex of the covered area
    ("tangent-to-two-edges-inside", ((0, 0), (4, 0), (0, 4)), [((1, 1), 1.0)],
     "0x1.921fb54442d18p+1"),
    ("tangent-to-edge-outside", ((0, 0), (4, 0), (0, 4)), [((2, -1), 1.0)], "0x0.0p+0"),
    ("disk-deep-inside", RIGHT, [((2, 3), 1.5)], "0x1.c463abeccb2bbp+2"),
    ("disk-beyond-an-edge", RIGHT, [((9, 9), 2.0), ((1, 1), 0.5)], "0x1.921fb54442d17p-1"),
    ("disk-covers-triangle", ((0, 0), (3, 0), (1, 2)), [((1.2, 0.7), 100.0)],
     "0x1.8000000000000p+1"),
    ("equilateral-covered", EQUILATERAL, at_vertices(EQUILATERAL, 1.5), "0x1.bb67ae8584caap+0"),
    ("equilateral-tangent-pairs", EQUILATERAL, at_vertices(EQUILATERAL, 1.0),
     "0x1.921fb54442d1ap+0"),
    ("equilateral-just-overlapping", EQUILATERAL, at_vertices(EQUILATERAL, nextafter(1.0, 2.0)),
     "0x1.921fb54442d1ap+0"),
    ("obtuse", ((0, 0), (10, 0), (5, 1)), at_vertices(((0, 0), (10, 0), (5, 1)), 3.0),
     "0x1.4000000000000p+2"),
    ("sliver", ((0, 0), (10, 0), (5, 1e-3)), at_vertices(((0, 0), (10, 0), (5, 1e-3)), 2.0),
     "0x1.0624dc77dc605p-8"),
    ("right-345-at-circumradius", ((0, 0), (4, 0), (0, 3)),
     at_vertices(((0, 0), (4, 0), (0, 3)), 2.5), "0x1.8000000000000p+2"),
    ("mixed-radii-and-zero", ((0, 0), (4, 0), (1, 3)),
     at_vertices(((0, 0), (4, 0), (1, 3)), 1.0, 0.0, 2.5), "0x1.f75c83305d806p+1"),
    ("disk-containing-another", ((0, 0), (6, 0), (0, 6)),
     [((0, 0), 3.0), ((0.5, 0.5), 0.5), ((6, 0), 1.0)], "0x1.dd85a7410f58dp+2"),
    ("concentric-disks", ((0, 0), (6, 0), (0, 6)),
     [((1.5, 1.5), 1.0), ((1.5, 1.5), 0.4), ((0, 6), 2.0)], "0x1.2d97c7f3321d1p+2"),
    ("covered-arc-wraps-past-zero", RIGHT, [((2, 2), 1.0), ((3, 2), 1.0)],
     "0x1.4382195387cfcp+2"),
    ("inner-arc-wraps-past-zero", ((0, -5), (10, 0), (0, 5)), [((0.5, 0), 1.0)],
     "0x1.4382195387cfbp+1"),
    ("off-vertex-spans-merge-on-edges", ((0, 0), (6, 0), (1, 5)),
     [((1, 1), 1.2), ((3, 0.5), 0.8), ((5.5, 0.2), 1.0), ((2, 4), 0.7), ((2.5, 0), 0.9)],
     "0x1.dc330e38ed919p+2"),
    ("triple-overlap-off-vertex", ((0, 0), (8, 0), (3, 7)),
     [((3, 2), 1.5), ((4.5, 2), 1.5), ((3.75, 3.2), 1.5)], "0x1.c67fc69dd496ep+3"),
    ("far-from-origin", FAR, at_vertices(FAR, 2.0), "0x1.ec00000000000p+1"),
    ("tiny-scale", TINY, at_vertices(TINY, 1.6e-6), "0x1.a636641c4df1ap-39"),
]


@pytest.mark.parametrize(
    "vertices, disks, bits",
    [case[1:] for case in PINNED_COVERED_AREA],
    ids=[case[0] for case in PINNED_COVERED_AREA],
)
def test_union_bits_are_pinned(vertices, disks, bits):
    t = tri(*vertices)
    assert triangle_disks_covered_area(t, [(Point(*c), r) for c, r in disks]).hex() == bits
