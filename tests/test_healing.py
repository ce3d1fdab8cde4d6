"""Relocation planning tests: target rule, optimal assignment, application."""
from __future__ import annotations

import itertools
from math import fsum, hypot, inf, pi, sqrt

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import tricover.healing
from fields import cell_xy, make_field, triangle_from_vertices
from oracles import centers, circumcenter, incenter, select_target
from tricover import (
    InvalidInputError,
    Point,
    detect_holes,
    hole_area,
    mc_coverage_fraction,
    plan_relocation,
    rank_holes,
    select_targets,
    triangulate,
)
from tricover.pipeline import _centers, _moves_from_plan


def tri(pts):
    return triangle_from_vertices(*(Point(*p) for p in pts))


def hole_for(pts, radius):
    t = tri(pts)
    return t, hole_area([cell_xy(t)], radius).s_h.tolist()[0]


# A field no test point lies outside of.
NO_BOUNDS = (inf, inf)


def target_of(t, s_h, mobile_radius, bounds=NO_BOUNDS):
    """The kind and the point ``select_targets`` gives the hole ``s_h`` of
    triangle ``t``, as a one-row column."""
    kinds, points = select_targets(
        [s_h], *(np.array([p]) for p in centers(t)), mobile_radius, bounds
    )
    return kinds.tolist()[0], Point(*points.tolist()[0])


def fake_target(cell_id, x, y, area=1.0):
    """A served hole's ``(cell_id, hole_area, point)``, as ``rank_holes`` takes it."""
    return (cell_id, area, (x, y))


def plan_targets(targets, field, unserved=()):
    """``plan_relocation`` on ``fake_target`` rows, each of kind circumcenter."""
    return plan_relocation(
        [t[0] for t in targets], ["circumcenter"] * len(targets), [t[2] for t in targets],
        field, unserved,
    )


def mobile_field(mobiles, width=20.0, height=20.0):
    return make_field(width, height, 1.0, [], mobiles)


def plan_largest(targets, field):
    """Plan as ``run_plan`` does: rank the holes, then serve the largest."""
    served, unserved = rank_holes(targets, len(field.mobile))
    return plan_targets(served, field, unserved)


SIDE19_EQUILATERAL = ((0.0, 0.0), (1.9, 0.0), (0.95, 1.9 * sqrt(3.0) / 2.0))


# --- select_targets ----------------------------------------------------------


def test_small_hole_goes_to_circumcenter():
    t, s_h = hole_for(SIDE19_EQUILATERAL, 1.0)
    # hole area 0.0551 <= pi * 1^2
    kind, point = target_of(t, s_h, mobile_radius=1.0)
    assert kind == "circumcenter"
    assert point == pytest.approx(circumcenter(t)[0])


def test_large_hole_goes_to_incenter():
    t, s_h = hole_for(SIDE19_EQUILATERAL, 1.0)
    # hole area 0.0551 > pi * 0.1^2 = 0.0314
    kind, point = target_of(t, s_h, mobile_radius=0.1)
    assert kind == "incenter"
    assert point == pytest.approx(incenter(t)[0])


def test_boundary_equality_is_circumcenter():
    t = tri(((0, 0), (4, 0), (0, 3)))
    kind, _ = target_of(t, pi * 0.25, mobile_radius=0.5)  # pi * R_m^2 == hole area
    assert kind == "circumcenter"


def test_target_kind_scale_invariant():
    rng = np.random.default_rng(83)
    for _ in range(100):
        while True:
            pts = rng.uniform(0, 4, size=(3, 2))
            t = tri(pts)
            if not t.degenerate and t.area >= 0.05 * max(t.sides) ** 2:
                break
        R = float(rng.uniform(0.2, 0.7)) * max(t.sides)
        t_obj, s_h = hole_for([tuple(p) for p in pts], R)
        rm = float(rng.uniform(0.05, 1.0)) * max(t.sides)
        k = float(rng.uniform(0.1, 10.0))
        kind, _ = target_of(t_obj, s_h, rm)
        t_scaled, s_h_scaled = hole_for([(k * x, k * y) for x, y in pts], k * R)
        scaled, _ = target_of(t_scaled, s_h_scaled, k * rm)
        assert scaled == kind


def test_circumcenter_clamped_to_bounds():
    # flat obtuse triangle: circumcenter far below the field rectangle
    t, s_h = hole_for(((0, 0.1), (4, 0.1), (2, 0.4)), 3.0)
    raw = circumcenter(t)[0]
    assert raw.y < 0.0
    kind, point = target_of(t, s_h, mobile_radius=5.0, bounds=(10.0, 5.0))
    assert kind == "circumcenter"
    assert point.y == 0.0
    assert point.x == raw.x  # inside the field: not moved
    assert (kind, point) == select_target(s_h, *centers(t), 5.0, (10.0, 5.0))


def test_select_target_rejects_bad_radius():
    t, s_h = hole_for(SIDE19_EQUILATERAL, 1.0)
    with pytest.raises(InvalidInputError):
        target_of(t, s_h, mobile_radius=0.0)


def _bits(points):
    return [(x.hex(), y.hex()) for x, y in points]


def test_select_targets_match_the_scalar_rule_on_a_random_sweep():
    # Hole areas on both sides of pi * R_m^2 and exactly on it; centers
    # inside, outside and exactly on the field's sides, and -0.0.
    rng = np.random.default_rng(20261021)
    n = 5000
    w, h = 40.0, 25.0
    rm = 3.0
    capacity = pi * rm * rm
    s_h = capacity * rng.uniform(0.0, 2.0, n)
    s_h[::7] = capacity
    cc = rng.uniform(-0.5, 1.5, (n, 2)) * (w, h)  # a third outside the field
    ic = rng.uniform(0.0, 1.0, (n, 2)) * (w, h)
    for col in (cc, ic):
        on_side = rng.integers(0, 5, (n, 2))  # 0: -0.0, 1: 0.0, 2: the bound, else keep
        col[on_side == 0] = -0.0
        col[on_side == 1] = 0.0
        col[:, 0][on_side[:, 0] == 2] = w
        col[:, 1][on_side[:, 1] == 2] = h
    kinds, points = select_targets(s_h, cc, ic, rm, (w, h))
    want = [
        select_target(a, Point(*c), Point(*i), rm, (w, h))
        for a, c, i in zip(s_h.tolist(), cc.tolist(), ic.tolist())
    ]
    assert kinds.tolist() == [k for k, _ in want]
    assert _bits(points.tolist()) == _bits(p for _, p in want)
    # every kind of value was drawn and kept
    assert np.count_nonzero(s_h == capacity) > 500
    assert np.count_nonzero(np.signbit(points) & (points == 0.0)) > 500
    assert np.count_nonzero(points == (w, h)) > 500
    assert np.count_nonzero((cc < 0.0) | (cc > (w, h))) > 2000


def test_plan_costs_match_scalar_hypot_on_a_random_sweep(monkeypatch):
    # The cost matrix ``linear_sum_assignment`` sees is the scalar
    # ``math.hypot`` of each mobile and target, bit for bit.
    seen = []

    def solve(cost):
        seen.append(cost.copy())
        return linear_sum_assignment(cost)

    monkeypatch.setattr(tricover.healing, "linear_sum_assignment", solve)
    rng = np.random.default_rng(20261022)
    for _ in range(50):
        n_mob, n_tgt = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        mob = rng.uniform(0, 20, (n_mob, 2))
        mob[rng.integers(0, 3, (n_mob, 2)) == 0] = 0.0
        tgt = rng.uniform(0, 20, (min(n_mob, n_tgt), 2))
        tgt[rng.integers(0, 3, tgt.shape) == 0] = -0.0
        field = mobile_field([(10 * i, x, y, 1.0) for i, (x, y) in enumerate(mob.tolist())])
        plan_targets([fake_target(j, x, y) for j, (x, y) in enumerate(tgt.tolist())], field)
        want = [
            [hypot(mx - tx, my - ty).hex() for tx, ty in tgt.tolist()] for mx, my in mob.tolist()
        ]
        assert [[v.hex() for v in row] for row in seen.pop().tolist()] == want


# --- plan_relocation ----------------------------------------------------------


def test_plan_two_mobiles_two_targets():
    field = mobile_field([(0, 0.0, 0.0, 1.0), (1, 10.0, 0.0, 1.0)])
    targets = [fake_target(0, 1.0, 0.0), fake_target(1, 9.0, 0.0)]
    plan = plan_targets(targets, field)
    assert plan.total_movement == pytest.approx(2.0)
    assert [a["mobile_id"] for a in plan.assignments] == [0, 1]
    assert plan.assignments[0]["cell_id"] == 0
    assert plan.assignments[1]["cell_id"] == 1
    assert plan.assignments[0]["distance"] == pytest.approx(1.0)
    assert plan.assignments[0]["target"] == {"x": 1.0, "y": 0.0}
    assert plan.assignments[0]["kind"] == "circumcenter"
    assert plan.unserved == ()


def test_plan_no_targets():
    field = mobile_field([(0, 1.0, 1.0, 1.0)])
    plan = plan_targets([], field)
    assert plan.assignments == ()
    assert plan.total_movement == 0.0
    assert plan.unserved == ()


def test_plan_refuses_more_targets_than_mobiles():
    field = mobile_field([(0, 0.0, 0.0, 1.0)])
    with pytest.raises(InvalidInputError, match="2 targets for 1 mobiles"):
        plan_targets([fake_target(0, 1, 1), fake_target(1, 2, 2)], field)


def test_plan_no_mobiles_all_unserved():
    field = mobile_field([])
    targets = [fake_target(2, 1, 1, area=0.5), fake_target(0, 2, 2, area=2.0)]
    plan = plan_largest(targets, field)
    assert plan.assignments == ()
    assert plan.unserved == (0, 2)  # largest area first


def test_plan_scarce_mobiles_serve_largest_areas():
    field = mobile_field([(0, 0.0, 0.0, 1.0), (1, 20.0, 20.0, 1.0)])
    targets = [
        fake_target(0, 5, 5, area=1.0),
        fake_target(1, 6, 6, area=3.0),
        fake_target(2, 7, 7, area=2.0),
    ]
    plan = plan_largest(targets, field)
    served_cells = {a["cell_id"] for a in plan.assignments}
    assert served_cells == {1, 2}
    assert plan.unserved == (0,)


def test_plan_equal_areas_tie_by_cell_id():
    field = mobile_field([(0, 0.0, 0.0, 1.0), (1, 1.0, 0.0, 1.0)])
    targets = [
        fake_target(7, 5, 5, area=1.0),
        fake_target(3, 6, 6, area=1.0),
        fake_target(5, 7, 7, area=1.0),
    ]
    plan = plan_largest(targets, field)
    assert {a["cell_id"] for a in plan.assignments} == {3, 5}
    assert plan.unserved == (7,)


def test_plan_surplus_mobiles_stay_put():
    field = mobile_field(
        [(0, 0.0, 0.0, 1.0), (1, 10.0, 0.0, 1.0), (2, 20.0, 20.0, 1.0)]
    )
    targets = [fake_target(0, 1.0, 0.0)]
    plan = plan_targets(targets, field)
    assert len(plan.assignments) == 1
    assert plan.assignments[0]["mobile_id"] == 0


def test_plan_assignments_sorted_by_mobile_id():
    rng = np.random.default_rng(89)
    field = mobile_field(
        [(i, float(x), float(y), 1.0) for i, (x, y) in enumerate(rng.uniform(0, 20, (6, 2)))]
    )
    targets = [
        fake_target(j, *map(float, rng.uniform(0, 20, 2)), area=float(j + 1))
        for j in range(4)
    ]
    plan = plan_targets(targets, field)
    ids = [a["mobile_id"] for a in plan.assignments]
    assert ids == sorted(ids)


def test_total_movement_adds_the_distances_in_mobile_order():
    """The total is the plain left-to-right sum, the same on every Python;
    a compensated sum, as ``sum`` of floats is from 3.12, differs here."""
    big = 2.0**53
    field = mobile_field(
        [(10, 0.0, 0.0, 1.0), (11, 0.0, 4.0, 1.0), (12, 0.0, 8.0, 1.0)], width=2.0**54, height=10.0
    )
    targets = [fake_target(0, big, 0.0), fake_target(1, 1.0, 4.0), fake_target(2, 1.0, 8.0)]
    plan = plan_targets(targets, field)
    distances = [a["distance"] for a in plan.assignments]
    assert [a["mobile_id"] for a in plan.assignments] == [10, 11, 12]
    assert distances == [big, 1.0, 1.0]
    assert fsum(distances) == big + 2.0
    assert plan.total_movement == big

def brute_force_total(mobile_pts, target_pts):
    best = inf
    for perm in itertools.permutations(range(len(mobile_pts)), len(target_pts)):
        total = sum(
            hypot(mobile_pts[p][0] - t[0], mobile_pts[p][1] - t[1])
            for p, t in zip(perm, target_pts)
        )
        best = min(best, total)
    return best


def test_plan_matches_brute_force_optimum():
    rng = np.random.default_rng(97)
    for _ in range(200):
        n_mob = int(rng.integers(1, 8))
        n_tgt = int(rng.integers(1, 8))
        mob_pts = [tuple(map(float, p)) for p in rng.uniform(0, 20, (n_mob, 2))]
        tgt_pts = [tuple(map(float, p)) for p in rng.uniform(0, 20, (n_tgt, 2))]
        field = mobile_field([(i, x, y, 1.0) for i, (x, y) in enumerate(mob_pts)])
        targets = [
            fake_target(j, x, y, area=float(rng.uniform(0.5, 5.0)))
            for j, (x, y) in enumerate(tgt_pts)
        ]
        plan = plan_largest(targets, field)
        served = sorted(targets, key=lambda t: (-t[1], t[0]))[: len(mob_pts)]
        expected = brute_force_total(mob_pts, [t[2] for t in served])
        assert plan.total_movement == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert len(plan.assignments) == min(n_mob, n_tgt)
        # each mobile used at most once
        ids = [a["mobile_id"] for a in plan.assignments]
        assert len(set(ids)) == len(ids)


def test_plan_never_worse_than_greedy():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        mob_pts = [tuple(map(float, p)) for p in rng.uniform(0, 20, (n, 2))]
        tgt_pts = [tuple(map(float, p)) for p in rng.uniform(0, 20, (n, 2))]
        field = mobile_field([(i, x, y, 1.0) for i, (x, y) in enumerate(mob_pts)])
        targets = [fake_target(j, x, y) for j, (x, y) in enumerate(tgt_pts)]
        plan = plan_targets(targets, field)

        remaining = set(range(n))
        greedy = 0.0
        for x, y in tgt_pts:
            best = min(remaining, key=lambda i: hypot(mob_pts[i][0] - x, mob_pts[i][1] - y))
            greedy += hypot(mob_pts[best][0] - x, mob_pts[best][1] - y)
            remaining.discard(best)
        assert plan.total_movement <= greedy + 1e-9


# --- applying a plan ----------------------------------------------------------------


def test_apply_plan_moves_assigned_mobile():
    field = mobile_field([(0, 0.0, 0.0, 1.0)])
    plan = plan_targets([fake_target(0, 3.0, 4.0)], field)
    assert plan.total_movement == pytest.approx(5.0)
    moves = _moves_from_plan({"assignments": plan.assignments})
    assert moves == {0: Point(3.0, 4.0)}
    # the moved disk keeps its radius: counted as the hand-moved field
    moved = mobile_field([(0, 3.0, 4.0, 1.0)])
    est = mc_coverage_fraction(field, 10**5, seed=3, moves=moves)
    assert est.after == mc_coverage_fraction(moved, 10**5, seed=3).before
    assert est.after > est.before
    # original field untouched
    assert field.mobile[0].position == Point(0.0, 0.0)


def test_apply_plan_zero_distance_is_fine():
    field = mobile_field([(0, 2.0, 2.0, 1.0)])
    plan = plan_targets([fake_target(0, 2.0, 2.0)], field)
    assert plan.total_movement == 0.0
    moves = _moves_from_plan({"assignments": plan.assignments})
    assert moves == {0: Point(2.0, 2.0)}
    est = mc_coverage_fraction(field, 10**5, seed=5, moves=moves)
    assert est.after == est.before


def test_healing_improves_coverage_paired_seed():
    # one stationary-triangle hole and one mobile: after relocation the same
    # sample set sees strictly more coverage
    side = 3.0
    field = make_field(
        4.0,
        4.0,
        1.0,
        [(0, 0.5, 0.5), (1, 3.5, 0.5), (2, 2.0, 0.5 + side * sqrt(3) / 2)],
        [(3, 0.1, 3.9, 1.5)],
    )
    mesh = triangulate(field)
    reports = detect_holes(mesh, field.sensing_radius)
    assert reports.is_hole.tolist() == [True]
    cell_id, hole = int(reports.cell_id[0]), float(reports.hole_area[0])
    rows = [cell_id]
    columns = _centers(mesh.xy[rows], mesh.sides[rows])
    kinds, points = select_targets([hole], *columns, mobile_radius=1.5, bounds=(4.0, 4.0))
    plan = plan_relocation(rows, kinds, points, field)
    moves = _moves_from_plan({"assignments": plan.assignments})
    est = mc_coverage_fraction(field, 200_000, seed=11, moves=moves)
    assert est.after > est.before
