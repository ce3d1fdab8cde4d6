"""Hole classification and area tests: goldens, labels, invariants."""
from __future__ import annotations

import struct
from math import inf, nextafter, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fields import detect_one, make_field, mesh_of
from oracles import case_formula_validity, case_label, case_value, lens_area, point_segment_distance
from tricover import (
    CaseLabel,
    DegenerateGeometryError,
    InvalidInputError,
    Point,
    detect_holes,
    exact_uncovered_area,
    hole_area,
    hole_epsilon,
    triangle_from_vertices,
    triangulate,
)
from tricover.holes import _case_route, _case_values

SIDE2_EQUILATERAL = (  # all three pairs exactly tangent at R = 1
    (0.0, 0.0),
    (2.0, 0.0),
    (1.0, sqrt(3.0)),
)
RIGHT_345 = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
ONE_OVERLAP = ((0.0, 0.0), (1.5, 0.0), (0.75, 2.0))
SIDE19_EQUILATERAL = (  # all three pairs overlapping at R = 1
    (0.0, 0.0),
    (1.9, 0.0),
    (0.95, 1.9 * sqrt(3.0) / 2.0),
)
# sides 1.8, 1.9, 2.5 at R = 1: exactly two overlapping pairs
_E_X = (1.8**2 + 1.9**2 - 2.5**2) / (2 * 1.8)
TWO_OVERLAP = ((0.0, 0.0), (1.8, 0.0), (_E_X, sqrt(1.9**2 - _E_X**2)))


def tri(pts):
    return triangle_from_vertices(*(Point(*p) for p in pts))


def scaled(pts, k):
    return [(k * x, k * y) for x, y in pts]


def detected_label(pts, radius):
    """Label ``detect_holes`` gives the one cell of a 3-sensor field on ``pts``."""
    pts = [(float(x), float(y)) for x, y in pts]
    field = make_field(
        max(x for x, _ in pts),
        max(y for _, y in pts),
        radius,
        [(i, x, y) for i, (x, y) in enumerate(pts)],
    )
    (label,) = detect_holes(triangulate(field), field.sensing_radius).label.tolist()
    return CaseLabel(label)


def case_route(t, radius):
    """The case formula, clamped as detection clamps it, whatever the predicate says."""
    return min(max(case_value(t, radius), 0.0), t.area)


def random_triangle(rng, span=4.0, min_shape=0.05):
    while True:
        t = tri(rng.uniform(0.0, span, size=(3, 2)))
        if not t.degenerate and t.area >= min_shape * max(t.sides) ** 2:
            return t


# --- golden hole areas -------------------------------------------------------


def test_tangent_equilateral_golden():
    comp = detect_one(tri(SIDE2_EQUILATERAL), 1.0)
    assert comp.s_h == pytest.approx(sqrt(3.0) - pi / 2, abs=1e-9)
    assert comp.s_h == pytest.approx(0.1612545, abs=1e-6)
    assert comp.method == "case-formula"


def test_separated_right_triangle_golden():
    t = tri(RIGHT_345)
    comp = detect_one(t, 1.0)
    assert comp.s_h == pytest.approx(6.0 - pi / 2, abs=1e-9)
    assert comp.s_h == pytest.approx(4.4292037, abs=1e-6)
    assert t.area == pytest.approx(6.0, rel=1e-12)


def test_one_overlap_golden():
    comp = detect_one(tri(ONE_OVERLAP), 1.0)
    expected = 1.5 - pi / 2 + 0.5 * lens_area(1.0, 1.0, 1.5)
    assert comp.s_h == pytest.approx(expected, abs=1e-12)
    assert comp.s_h == pytest.approx(0.1558596, abs=1e-6)


def test_three_overlap_equilateral_golden():
    comp = detect_one(tri(SIDE19_EQUILATERAL), 1.0)
    s_delta = sqrt(3.0) / 4 * 1.9**2
    expected = s_delta - pi / 2 + 3 * 0.5 * lens_area(1.0, 1.0, 1.9)
    assert comp.s_h == pytest.approx(expected, abs=1e-12)
    assert comp.s_h == pytest.approx(0.0551486, abs=1e-6)


def test_goldens_match_exact_fallback():
    for pts in (SIDE2_EQUILATERAL, RIGHT_345, ONE_OVERLAP, SIDE19_EQUILATERAL):
        t = tri(pts)
        auto = detect_one(t, 1.0)
        exact = exact_uncovered_area(t, 1.0)
        assert auto.s_h == pytest.approx(exact, rel=1e-9, abs=1e-12)


# --- classification ----------------------------------------------------------


@pytest.mark.parametrize(
    "pts,label",
    [
        (RIGHT_345, CaseLabel.A),
        (SIDE2_EQUILATERAL, CaseLabel.B),
        (((0, 0), (3, 0), (1.5, sqrt(4 - 1.5**2))), CaseLabel.C),
        (ONE_OVERLAP, CaseLabel.D),
        (TWO_OVERLAP, CaseLabel.E),
        (((0, 0), (1, 0), (0.5, sqrt(3) / 2)), CaseLabel.F),
        (((0, 0), (1.5, 0), (0, 2)), CaseLabel.G),
        (((0, 0), (2, 0), (0, 3)), CaseLabel.H),
        (SIDE19_EQUILATERAL, CaseLabel.I),
    ],
)
def test_classify_all_labels(pts, label):
    assert detected_label(pts, 1.0) is label


def test_classify_scale_invariant():
    rng = np.random.default_rng(53)
    for _ in range(200):
        t = random_triangle(rng)
        R = float(rng.uniform(0.2, 0.8)) * max(t.sides)
        k = float(rng.uniform(0.01, 100.0))
        label = detected_label(t.vertices, R)
        assert detected_label(scaled(t.vertices, k), k * R) is label


def test_full_coverage_examples():
    assert detected_label(((0, 0), (1, 0), (0.5, sqrt(3) / 2)), 1.0) is CaseLabel.F
    assert detected_label(SIDE19_EQUILATERAL, 1.0) is not CaseLabel.F
    # unit right triangle with circumradius sqrt(2)/2 < 1
    assert detected_label(((0, 0), (1, 0), (0, 1)), 1.0) is CaseLabel.F


def test_tangent_tolerance_is_relative():
    # side shorter than 2R by far less than the relative tolerance still
    # counts as tangent, not overlapping
    delta = 1e-12
    pts = ((0, 0), (2 - delta, 0), (0, 3))
    assert detected_label(pts, 1.0) is CaseLabel.H


# --- case formula vs exact fallback --------------------------------------------


def sector_bound(t):
    """Least vertex-to-opposite-segment distance: the largest R whose
    vertex sectors fit inside ``t``."""
    v = t.vertices
    return min(
        point_segment_distance(v[k], v[i], v[j]) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )


def test_case_matches_exact_when_predicate_holds():
    rng = np.random.default_rng(61)
    inputs = []
    for _ in range(1000):
        t = random_triangle(rng)
        inputs.append((t, float(rng.uniform(0.15, 0.75)) * max(t.sides)))
    # radii just below the sector bound, where the sectors nearly touch the
    # opposite sides; the slivers are obtuse with overlapping short sides.
    # Not at the bound itself: with a disk tangent to a side, the exact
    # fallback is off by up to ~1e-7 * area (rounding of the tangent crossing).
    shapes = [random_triangle(rng) for _ in range(200)] + [
        tri(((0.0, 0.0), (4.0, 0.0), (4.0 * x, h)))
        for x in (0.05, 0.2, 0.5, 0.8)
        for h in (0.3, 0.6, 1.0)
    ]
    for t in shapes:
        bound = sector_bound(t)
        inputs += [(t, bound * (1 - 1e-12)), (t, bound * (1 - 1e-9))]
    checked = at_bound = 0
    for i, (t, R) in enumerate(inputs):
        validity = case_formula_validity(t, R)
        if not validity.all_hold():
            continue
        checked += 1
        at_bound += i >= 1000
        case = case_route(t, R)
        exact = exact_uncovered_area(t, R)
        assert case == pytest.approx(exact, abs=1e-9 * t.area)
    assert checked > 200  # the predicate must actually fire often enough
    assert at_bound > 300


def test_auto_route_matches_method_flag():
    rng = np.random.default_rng(67)
    for _ in range(300):
        t = random_triangle(rng)
        R = float(rng.uniform(0.15, 0.75)) * max(t.sides)
        comp = detect_one(t, R)
        if case_formula_validity(t, R).all_hold():
            assert comp.method == "case-formula"
        else:
            assert comp.method == "exact-fallback"
        assert 0.0 <= comp.s_h <= t.area


def test_forced_case_on_invalid_predicate_is_flagged():
    # thin obtuse sliver: the raw case expression goes negative
    # (0.33 - pi/2 + lens terms < 0), the clamp would keep it at zero, and
    # the validity flags say the formula does not apply, so the exact
    # fallback measures the cell
    t = tri(((0, 0), (2.2, 0), (1.1, 0.3)))
    validity = case_formula_validity(t, 1.0)
    assert not validity.sectors_contained
    assert not validity.all_hold()
    raw = t.area - pi / 2 + sum(0.5 * lens_area(1.0, 1.0, d) for d in t.sides if d < 2.0)
    assert raw < 0.0
    assert case_route(t, 1.0) == 0.0
    assert detect_one(t, 1.0).method == "exact-fallback"


def test_hole_area_scales_quadratically():
    rng = np.random.default_rng(71)
    for _ in range(200):
        t = random_triangle(rng)
        R = float(rng.uniform(0.2, 0.8)) * max(t.sides)
        base = detect_one(t, R).s_h
        k = float(rng.uniform(0.05, 20.0))
        scaled_comp = detect_one(tri(scaled(t.vertices, k)), k * R)
        assert scaled_comp.s_h == pytest.approx(k * k * base, rel=1e-6, abs=1e-12)


def test_hole_area_non_increasing_in_radius():
    rng = np.random.default_rng(73)
    for _ in range(100):
        t = random_triangle(rng)
        radii = np.sort(rng.uniform(0.1, 1.0, size=6)) * max(t.sides)
        values = [detect_one(t, float(R)).s_h for R in radii]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-9 * t.area


def test_tangent_cases_compute_like_separated():
    # tangent pairs contribute no lens term, so B/C/H reduce to the
    # separated-case expression: triangle area - pi R^2 / 2, to the bit
    for pts in (
        SIDE2_EQUILATERAL,
        ((0, 0), (3, 0), (1.5, sqrt(4 - 1.5**2))),
        ((0, 0), (2, 0), (0, 3)),
    ):
        t = tri(pts)
        comp = detect_one(t, 1.0)
        assert comp.method == "case-formula"
        assert comp.s_h == t.area - 0.5 * pi


def test_validity_predicate_parts():
    # huge radius breaks every part on a small triangle
    small = tri(((0, 0), (1, 0), (0.5, 0.8)))
    v = case_formula_validity(small, 10.0)
    assert not v.sectors_contained
    assert not v.triple_overlap_empty
    assert not v.all_hold()
    # generous separated triangle satisfies everything
    v2 = case_formula_validity(tri(RIGHT_345), 1.0)
    assert v2.sectors_contained
    assert v2.triple_overlap_empty


def test_degenerate_and_bad_radius_errors():
    line = tri(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(DegenerateGeometryError):
        hole_area(line, 1.0)
    good = tri(RIGHT_345)
    for radius in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            hole_area(good, radius)


# --- detect_holes ----------------------------------------------------------------


def test_detect_single_equilateral():
    side = 3.0
    field = make_field(
        4.0, 4.0, 1.0, [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + side * sqrt(3) / 2)]
    )
    reports = detect_holes(triangulate(field), field.sensing_radius)
    assert reports.cell_id.tolist() == [0]
    assert reports.label.tolist() == ["A"]
    assert reports.is_hole.tolist() == [True]
    assert reports.hole_area[0] == pytest.approx(sqrt(3) / 4 * 9 - pi / 2, abs=1e-9)


def test_detect_unit_square_fully_covered():
    field = make_field(1.0, 1.0, 1.0, [(0, 0, 0), (1, 1, 0), (2, 1, 1), (3, 0, 1)])
    reports = detect_holes(triangulate(field), field.sensing_radius)
    assert reports.label.tolist() == ["F", "F"]
    assert reports.is_hole.tolist() == [False, False]
    assert reports.hole_area.tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


def test_detect_sorted_by_area_then_id():
    rng = np.random.default_rng(79)
    field = make_field(
        100.0,
        100.0,
        8.0,
        [(i, *map(float, rng.uniform(0, 100, size=2))) for i in range(40)],
    )
    reports = detect_holes(triangulate(field), field.sensing_radius)
    keys = list(zip((-reports.hole_area).tolist(), reports.cell_id.tolist()))
    assert keys == sorted(keys)
    assert sorted(reports.cell_id.tolist()) == list(range(len(triangulate(field).cells)))


def test_detect_epsilon_override():
    field = make_field(
        4.0, 4.0, 1.0, [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + 3 * sqrt(3) / 2)]
    )
    mesh = triangulate(field)
    assert detect_holes(mesh, field.sensing_radius).is_hole.tolist() == [True]
    assert detect_holes(mesh, field.sensing_radius, epsilon=100.0).is_hole.tolist() == [False]
    assert hole_epsilon(2.0) == pytest.approx(4e-9)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
def test_detect_rejects_bad_radius_before_deriving_epsilon(radius):
    field = make_field(
        4.0, 4.0, 1.0, [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + 3 * sqrt(3) / 2)]
    )
    with pytest.raises(InvalidInputError, match="^sensing radius must be > 0, got "):
        detect_holes(triangulate(field), radius)


# --- the detect kernel against the scalar path --------------------------------------


def ulps(x, k):
    """``x`` stepped ``k`` floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = nextafter(x, inf if k > 0 else -inf)
    return x


def last_holding(holds, lo, hi):
    """A float ``R`` in ``[lo, hi)`` with ``holds(R)`` and not ``holds`` of
    the next float, by bisection on the float order; ``holds(lo)`` must be
    true and ``holds(hi)`` false."""
    ilo, ihi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (lo, hi))
    while ihi - ilo > 1:
        mid = (ilo + ihi) // 2
        if holds(struct.unpack("<d", struct.pack("<q", mid))[0]):
            ilo = mid
        else:
            ihi = mid
    return struct.unpack("<d", struct.pack("<q", ilo))[0]


def predicate_flip(t, part="all"):
    """The radius at which ``t``'s validity predicate, or one of its two
    conditions, stops holding."""
    def holds(R):
        flags = case_formula_validity(t, R)
        return {"all": flags.all_hold(), "sectors": flags.sectors_contained,
                "triple": flags.triple_overlap_empty}[part]

    return last_holding(holds, 1e-3 * min(t.sides), 10.0 * max(t.sides))


# The tolerance 1e-9 * R of this radius is 2**-30, so 2R - tol and 2R + tol
# are floats, and a side can lie exactly at the tangency tolerance.
EXACT_TOLERANCE_RADIUS = 0.9313225746154785
assert 1e-9 * EXACT_TOLERANCE_RADIUS == 2.0**-30


@st.composite
def kernel_inputs(draw):
    """Triangles, a radius and a threshold where the kernel and the scalar
    path could part: sides at 2R +- tol and one ulp either side, R at the
    sector and triple-overlap bounds and ulps either side, right, obtuse,
    acute and equilateral triangles, slivers either side of the 1e-12
    degeneracy bound,
    fully covered copies (report-order ties at s_h = 0), and epsilon 0, a
    custom value or equal to some cell's s_h."""
    tris = []

    def add(*pts):
        tris.append(triangle_from_vertices(*(Point(float(x), float(y)) for x, y in pts)))

    frac = st.floats(0.05, 3.0)
    if draw(st.booleans()):
        # R where the predicate of a first triangle, or one of its two
        # conditions, stops holding, or one ulp either side
        add((0, 0), (draw(frac), 0), (draw(st.floats(-1.0, 2.0)), draw(frac)))
        part = draw(st.sampled_from(["all", "sectors", "triple"]))
        radius = ulps(predicate_flip(tris[0], part), draw(st.integers(-1, 1)))
    else:
        radius = draw(st.sampled_from([1.0, 0.75, 3.0, EXACT_TOLERANCE_RADIUS, 2.0**-30, 2.0**40]))
    two_r, tol = 2.0 * radius, 1e-9 * radius
    for _ in range(draw(st.integers(1, 4))):
        # a side on the x axis, where hypot gives it exactly
        d = draw(st.sampled_from([two_r - tol, two_r, two_r + tol]))
        d = ulps(d, draw(st.integers(-1, 1)))
        if draw(st.booleans()):
            add((0, 0), (d, 0), (draw(st.floats(-0.5, 1.5)) * d, draw(st.floats(0.05, 2.0)) * d))
        else:  # equilateral: all three sides near 2R
            add((0, 0), (d, 0), (0.5 * d, 0.5 * sqrt(3.0) * d))
    for _ in range(draw(st.integers(1, 5))):
        # right angles at either end of the base, acute or obtuse elsewhere
        u, v = draw(frac) * radius, draw(frac) * radius
        x = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(-1.0, 2.0)))
        add((0, 0), (u, 0), (x * u, v))
    for _ in range(draw(st.integers(0, 3))):
        # slivers of area near the degeneracy bound 1e-12 * longest^2
        length = draw(frac) * radius
        h = 2e-12 * length * draw(st.one_of(st.floats(1.0, 1.5), st.floats(0.0, 1.0)))
        add((0, 0), (length, 0), (draw(st.floats(0.0, 1.0)) * length, h))
    for _ in range(draw(st.integers(0, 4))):
        # covered: the circumradius R / sqrt(3) is below R
        add((0, 0), (radius, 0), (0.5 * radius, 0.5 * sqrt(3.0) * radius))
    for _ in range(draw(st.integers(0, 3))):
        tris.append(tris[draw(st.integers(0, len(tris) - 1))])
    mode = draw(st.sampled_from(["default", "zero", "custom", "an s_h"]))
    if mode == "default":
        epsilon = None
    elif mode == "zero":
        epsilon = 0.0
    elif mode == "custom":
        epsilon = draw(st.floats(0.0, 0.5)) * radius * radius
    else:
        t = tris[draw(st.integers(0, len(tris) - 1))]
        epsilon = 0.0 if t.degenerate else detect_one(t, radius).s_h
    return tris, radius, epsilon


def scalar_reports(tris, radius, epsilon):
    """What ``detect_holes`` reports, cell by cell through the scalar path:
    the oracle's scalar predicate routes each cell to its case formula or to
    the exact integral."""
    eps = hole_epsilon(radius) if epsilon is None else epsilon
    rows = []
    for k, t in enumerate(tris):
        if t.degenerate:
            rows.append((k, "F", "case-formula", False, 0.0))
            continue
        if case_formula_validity(t, radius).all_hold():
            s_h, method = case_route(t, radius), "case-formula"
        else:
            s_h, method = exact_uncovered_area(t, radius), "exact-fallback"
        rows.append((k, case_label(t, radius, s_h < eps), method, s_h > eps, s_h))
    rows.sort(key=lambda r: (-r[4], r[0]))
    return [(*r[:4], r[4].hex()) for r in rows]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_the_scalar_path_bit_for_bit(inputs):
    tris, radius, epsilon = inputs
    mesh = mesh_of(tris)
    reports = detect_holes(mesh, radius, epsilon)
    columns = (reports.cell_id, reports.label, reports.method, reports.is_hole, reports.hole_area)
    got = [(*r[:4], r[4].hex()) for r in zip(*(c.tolist() for c in columns))]
    assert got == scalar_reports(tris, radius, epsilon)
    # the route and the case formula on every cell, not only where the route takes it
    live = [t for t in tris if not t.degenerate]
    if live:
        live_mesh = mesh_of(live)
        routes = _case_route(live_mesh.xy, live_mesh.sides, live_mesh.area, radius)
        assert routes.tolist() == [case_formula_validity(t, radius).all_hold() for t in live]
        values = _case_values(live_mesh.sides, live_mesh.area, radius)
        assert [v.hex() for v in values.tolist()] == [case_value(t, radius).hex() for t in live]


def test_kernel_route_flips_where_the_scalar_predicate_flips():
    """At the radius where a cell's predicate stops holding, and one float
    above, the kernel picks the scalar path's route."""
    rng = np.random.default_rng(83)
    checked = {"sectors": 0, "triple": 0}
    for _ in range(1500):
        t = random_triangle(rng, min_shape=0.01)
        k, dx, dy = float(rng.uniform(0.01, 100.0)), *rng.uniform(-1e3, 1e3, size=2).tolist()
        t = tri([(k * float(x) + dx, k * float(y) + dy) for x, y in t.vertices])
        if t.degenerate:
            continue
        flip = predicate_flip(t)
        checked["sectors" if predicate_flip(t, "sectors") == flip else "triple"] += 1
        mesh = mesh_of([t])
        for radius, holds in ((flip, True), (nextafter(flip, inf), False)):
            assert case_formula_validity(t, radius).all_hold() is holds
            assert _case_route(mesh.xy, mesh.sides, mesh.area, radius).tolist() == [holds]
    assert min(checked.values()) > 200
