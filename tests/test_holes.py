"""Hole classification and area tests: goldens, labels, invariants."""
from __future__ import annotations

from math import pi, sqrt

import numpy as np
import pytest

from tricover import (
    CaseLabel,
    DegenerateGeometryError,
    InvalidInputError,
    Point,
    case_formula_validity,
    detect_holes,
    exact_uncovered_area,
    hole_area,
    hole_epsilon,
    lens_area,
    make_field,
    triangle_from_vertices,
    triangulate,
)
from tricover.geometry import point_segment_distance
from tricover.holes import _case_value

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
    (report,) = detect_holes(triangulate(field), field.sensing_radius)
    return report.label


def case_route(t, radius):
    """The case formula, clamped as ``hole_area`` clamps it, whatever the predicate says."""
    return min(max(_case_value(t, radius), 0.0), t.area)


def random_triangle(rng, span=4.0, min_shape=0.05):
    while True:
        t = tri(rng.uniform(0.0, span, size=(3, 2)))
        if not t.degenerate and t.area >= min_shape * max(t.sides) ** 2:
            return t


# --- golden hole areas -------------------------------------------------------


def test_tangent_equilateral_golden():
    comp = hole_area(tri(SIDE2_EQUILATERAL), 1.0)
    assert comp.s_h == pytest.approx(sqrt(3.0) - pi / 2, abs=1e-9)
    assert comp.s_h == pytest.approx(0.1612545, abs=1e-6)
    assert comp.method == "case-formula"


def test_separated_right_triangle_golden():
    t = tri(RIGHT_345)
    comp = hole_area(t, 1.0)
    assert comp.s_h == pytest.approx(6.0 - pi / 2, abs=1e-9)
    assert comp.s_h == pytest.approx(4.4292037, abs=1e-6)
    assert t.area == pytest.approx(6.0, rel=1e-12)


def test_one_overlap_golden():
    comp = hole_area(tri(ONE_OVERLAP), 1.0)
    expected = 1.5 - pi / 2 + 0.5 * lens_area(1.0, 1.0, 1.5)
    assert comp.s_h == pytest.approx(expected, abs=1e-12)
    assert comp.s_h == pytest.approx(0.1558596, abs=1e-6)


def test_three_overlap_equilateral_golden():
    comp = hole_area(tri(SIDE19_EQUILATERAL), 1.0)
    s_delta = sqrt(3.0) / 4 * 1.9**2
    expected = s_delta - pi / 2 + 3 * 0.5 * lens_area(1.0, 1.0, 1.9)
    assert comp.s_h == pytest.approx(expected, abs=1e-12)
    assert comp.s_h == pytest.approx(0.0551486, abs=1e-6)


def test_goldens_match_exact_fallback():
    for pts in (SIDE2_EQUILATERAL, RIGHT_345, ONE_OVERLAP, SIDE19_EQUILATERAL):
        t = tri(pts)
        auto = hole_area(t, 1.0)
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
        comp = hole_area(t, R)
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
    assert hole_area(t, 1.0).method == "exact-fallback"


def test_hole_area_scales_quadratically():
    rng = np.random.default_rng(71)
    for _ in range(200):
        t = random_triangle(rng)
        R = float(rng.uniform(0.2, 0.8)) * max(t.sides)
        base = hole_area(t, R).s_h
        k = float(rng.uniform(0.05, 20.0))
        scaled_comp = hole_area(tri(scaled(t.vertices, k)), k * R)
        assert scaled_comp.s_h == pytest.approx(k * k * base, rel=1e-6, abs=1e-12)


def test_hole_area_non_increasing_in_radius():
    rng = np.random.default_rng(73)
    for _ in range(100):
        t = random_triangle(rng)
        radii = np.sort(rng.uniform(0.1, 1.0, size=6)) * max(t.sides)
        values = [hole_area(t, float(R)).s_h for R in radii]
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
        comp = hole_area(t, 1.0)
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
    assert len(reports) == 1
    rep = reports[0]
    assert rep.label is CaseLabel.A
    assert rep.is_hole
    assert rep.hole_area == pytest.approx(sqrt(3) / 4 * 9 - pi / 2, abs=1e-9)


def test_detect_unit_square_fully_covered():
    field = make_field(1.0, 1.0, 1.0, [(0, 0, 0), (1, 1, 0), (2, 1, 1), (3, 0, 1)])
    reports = detect_holes(triangulate(field), field.sensing_radius)
    assert len(reports) == 2
    assert all(r.label is CaseLabel.F for r in reports)
    assert all(not r.is_hole for r in reports)
    assert all(r.hole_area == pytest.approx(0.0, abs=1e-12) for r in reports)


def test_detect_sorted_by_area_then_id():
    rng = np.random.default_rng(79)
    field = make_field(
        100.0,
        100.0,
        8.0,
        [(i, *map(float, rng.uniform(0, 100, size=2))) for i in range(40)],
    )
    reports = detect_holes(triangulate(field), field.sensing_radius)
    keys = [(-r.hole_area, r.cell_id) for r in reports]
    assert keys == sorted(keys)
    assert {r.cell_id for r in reports} == set(range(len(triangulate(field).cells)))


def test_detect_epsilon_override():
    field = make_field(
        4.0, 4.0, 1.0, [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + 3 * sqrt(3) / 2)]
    )
    mesh = triangulate(field)
    assert detect_holes(mesh, field.sensing_radius)[0].is_hole
    assert not detect_holes(mesh, field.sensing_radius, epsilon=100.0)[0].is_hole
    assert hole_epsilon(2.0) == pytest.approx(4e-9)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
def test_detect_rejects_bad_radius_before_deriving_epsilon(radius):
    field = make_field(
        4.0, 4.0, 1.0, [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + 3 * sqrt(3) / 2)]
    )
    with pytest.raises(InvalidInputError, match="^sensing radius must be > 0, got "):
        detect_holes(triangulate(field), radius)
