"""Acceptance gate: ten pass/fail checks over the toolkit's core guarantees.

Each test prints one PASS line on success (visible with ``pytest -s``) and
fails loudly otherwise; ``pytest -v`` shows one PASSED/FAILED line per
criterion. The random sweeps are seeded, so every run checks the same
instances.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import acos, hypot, pi, sqrt

import numpy as np
import pytest

from fields import TriangleGeom, detect_one, exact_route, geoms, triangle_from_vertices
from oracles import case_value, centers, circumcenter, grid_region_uncovered, incenter, lens_area
from tricover import (
    HoleComputation,
    Point,
    generate_scenario,
    plan_relocation,
    rank_holes,
    run_detect,
    run_plan,
    run_verify,
    select_targets,
    triangulate,
)
from tricover.cli import main
from tricover.holes import _half_lenses

SWEEP_SEED = 20260815
SWEEP_SIZE = 500
GRID_RESOLUTION = 1024


@dataclass(frozen=True)
class SweepRow:
    tri: TriangleGeom
    radius: float
    auto: HoleComputation
    case_value: float
    exact_value: float
    grid_value: float


@pytest.fixture(scope="module")
def sweep():
    """Seeded random (triangle, radius) instances with all four estimates."""
    rng = np.random.default_rng(SWEEP_SEED)
    rows = []
    while len(rows) < SWEEP_SIZE:
        pts = rng.uniform(0.0, 4.0, size=(3, 2))
        t = triangle_from_vertices(*(Point(*p) for p in pts))
        if t.degenerate or t.area < 0.08 * max(t.sides) ** 2:
            continue
        radius = float(rng.uniform(0.15, 0.75)) * max(t.sides)
        auto = detect_one(t, radius)  # one cell per instance
        # the case formula clamped as detection clamps it, on every instance
        case = min(max(case_value(t, radius), 0.0), t.area)
        exact_value = exact_route(t, radius)
        grid_value = grid_region_uncovered(
            t, [(v, radius) for v in t.vertices], GRID_RESOLUTION
        )
        rows.append(SweepRow(t, radius, auto, case, exact_value, grid_value))
    return rows


def test_criterion_01_lens_golden_values():
    # the equal-radius lens on production's half-lens; the tangent and
    # unequal-radius lenses, which production never forms, on the oracle's
    lens = 2 * float(_half_lenses(1.0, np.array([1.0]))[0])
    assert lens == pytest.approx(2 * acos(0.5) - sqrt(3.0) / 2, abs=1e-9)
    assert lens == pytest.approx(1.2283697, abs=1e-6)
    assert lens_area(1.0, 0.5, 0.0) == pytest.approx(pi / 4, abs=1e-9)
    assert lens_area(1.0, 1.0, 2.0) == 0.0
    print("PASS criterion 1: lens-area golden values")


def test_criterion_02_hole_area_golden_values():
    goldens = [
        (((0, 0), (2, 0), (1, sqrt(3.0))), sqrt(3.0) - pi / 2, 0.1612545),
        (((0, 0), (4, 0), (0, 3)), 6.0 - pi / 2, 4.4292037),
        (
            ((0, 0), (1.5, 0), (0.75, 2)),
            1.5 - pi / 2 + 0.5 * lens_area(1, 1, 1.5),
            0.1558596,
        ),
        (
            ((0, 0), (1.9, 0), (0.95, 1.9 * sqrt(3.0) / 2)),
            sqrt(3.0) / 4 * 1.9**2 - pi / 2 + 1.5 * lens_area(1, 1, 1.9),
            0.0551486,
        ),
    ]
    for pts, closed_form, rounded in goldens:
        t = triangle_from_vertices(*(Point(*p) for p in pts))
        s_h = detect_one(t, 1.0).s_h
        assert s_h == pytest.approx(closed_form, abs=1e-9), pts
        assert s_h == pytest.approx(rounded, abs=1e-6), pts
        grid = grid_region_uncovered(
            t, [(v, 1.0) for v in t.vertices], GRID_RESOLUTION
        )
        assert abs(s_h - grid) <= 0.005 * max(s_h, grid), pts
    print("PASS criterion 2: four hole-area golden values (closed form + grid)")


def test_criterion_03_oracle_equivalence_sweep(sweep):
    failures = []
    for row in sweep:
        diff = abs(row.auto.s_h - row.grid_value)
        tol = max(0.005 * max(row.auto.s_h, row.grid_value), 1e-4 * row.tri.area)
        if diff > tol:
            failures.append((row.tri.vertices, row.radius, diff, tol))
    assert not failures, f"{len(failures)} of {len(sweep)} exceeded tolerance"
    print(
        f"PASS criterion 3: auto hole area matches the grid oracle on "
        f"{len(sweep)}/{len(sweep)} sweep instances"
    )


def test_criterion_04_case_formula_agreement(sweep):
    held = 0
    for row in sweep:
        if row.auto.method != "case-formula":
            continue
        held += 1
        assert row.auto.s_h.hex() == row.case_value.hex()
        assert abs(row.case_value - row.exact_value) < 1e-6 * row.tri.area
    assert held >= 100  # the predicate must fire on a healthy share
    print(
        f"PASS criterion 4: case formula equals exact fallback on all "
        f"{held} predicate-valid sweep instances"
    )


def test_criterion_05_center_constructions():
    rng = np.random.default_rng(SWEEP_SEED + 5)
    checked = 0
    while checked < 1000:
        pts = rng.uniform(0.0, 10.0, size=(3, 2))
        t = triangle_from_vertices(*(Point(*p) for p in pts))
        if t.degenerate or t.area < 0.02 * max(t.sides) ** 2:
            continue
        checked += 1
        cc, cr = circumcenter(t)
        for v in t.vertices:
            assert abs(hypot(cc.x - v.x, cc.y - v.y) - cr) <= 1e-9 * cr
        ic, ir = incenter(t)
        for i in range(3):
            a, b = t.vertices[i], t.vertices[(i + 1) % 3]
            ex, ey = b.x - a.x, b.y - a.y
            dist = abs(ex * (ic.y - a.y) - ey * (ic.x - a.x)) / hypot(ex, ey)
            assert abs(dist - ir) <= 1e-9 * ir
    t345 = triangle_from_vertices(Point(0, 0), Point(4, 0), Point(0, 3))
    center, radius = incenter(t345)
    assert center.x == pytest.approx(1.0, abs=1e-9)
    assert center.y == pytest.approx(1.0, abs=1e-9)
    assert radius == pytest.approx(1.0, abs=1e-9)
    print("PASS criterion 5: circumcenter/incenter properties on 1000 triangles")


def test_criterion_06_delaunay_properties():
    def hull_count(coords):
        pts = sorted(set(map(tuple, coords)))

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

    for seed in (1, 2, 3):
        n = 1000
        rng = np.random.default_rng(SWEEP_SEED + seed)
        coords = rng.uniform(0.0, 100.0, size=(n, 2))
        scenario_field = _field_from_coords(coords)
        mesh = triangulate(scenario_field)

        assert len(mesh.cells) == 2 * n - 2 - hull_count(coords)

        site_xy = np.array([[s.position.x, s.position.y] for s in mesh.sites])
        centers = np.empty((len(mesh.cells), 2))
        radii = np.empty(len(mesh.cells))
        members = []
        for k, (triple, geom) in enumerate(zip(mesh.cells.tolist(), geoms(mesh))):
            c, r = circumcenter(geom)
            centers[k] = (c.x, c.y)
            radii[k] = r
            members.append(triple)
        ids = np.array([s.id for s in mesh.sites])
        dists = np.hypot(
            site_xy[None, :, 0] - centers[:, None, 0],
            site_xy[None, :, 1] - centers[:, None, 1],
        )
        inside = dists < (radii[:, None] - 1e-9 * radii[:, None])
        for k, triple in enumerate(members):
            offenders = ids[inside[k]]
            assert all(o in triple for o in offenders), (
                f"seed {seed}: cell {k} circumcircle contains foreign sites"
            )
    print("PASS criterion 6: empty circumcircle + Euler count on 3x1000 sites")


def _field_from_coords(coords):
    from fields import make_field

    span = float(coords.max()) + 1.0
    return make_field(
        span, span, 1.0, [(i, float(x), float(y)) for i, (x, y) in enumerate(coords)]
    )


def test_criterion_07_healing_improves_coverage():
    scenario = generate_scenario(
        width=100.0,
        height=100.0,
        n_stationary=50,
        n_mobile=5,
        sensing_radius=10.0,
        mobile_radius=10.0,
        seed=42,
    )
    planned = run_plan(run_detect(scenario), scenario, mobile_radius=10.0)
    v = run_verify(scenario, planned, samples=10**6, seed=7).verify
    gain = v["after"] - v["before"]
    # 6 x the larger 99% half-width bounds 3 x (sum of the two half-widths)
    threshold = 6 * v["half_width"]
    assert gain > threshold, f"gain {gain:.4f} <= threshold {threshold:.4f}"
    print(
        f"PASS criterion 7: healing gain {gain:.4f} exceeds 6 x the larger "
        f"99% half-width ({threshold:.4f})"
    )


def target_kind(s_h, tri, mobile_radius):
    """The kind ``select_targets`` gives the hole ``s_h`` of triangle ``tri``."""
    columns = (np.array([p]) for p in centers(tri))
    kinds, _ = select_targets([s_h], *columns, mobile_radius, (np.inf, np.inf))
    return kinds.tolist()[0]


def test_criterion_08_target_rule_conformance(sweep):
    rng = np.random.default_rng(SWEEP_SEED + 8)
    for row in sweep:
        mobile_radius = float(
            rng.uniform(0.2, 2.0)
        ) * sqrt(max(row.auto.s_h, 1e-12) / pi)
        kind = target_kind(row.auto.s_h, row.tri, mobile_radius)
        if row.auto.s_h <= pi * mobile_radius**2:
            assert kind == "circumcenter"
        else:
            assert kind == "incenter"
    # exact boundary: hole area == pi * R_m^2 goes to the circumcenter
    t = triangle_from_vertices(Point(0, 0), Point(4, 0), Point(0, 3))
    assert target_kind(pi * 0.25, t, 0.5) == "circumcenter"
    print("PASS criterion 8: target kind follows the disk-capacity rule")


def test_criterion_09_assignment_optimality():
    import itertools

    from fields import make_field

    rng = np.random.default_rng(SWEEP_SEED + 9)
    for _ in range(200):
        n_mob = int(rng.integers(1, 8))
        n_tgt = int(rng.integers(1, 8))
        mob_pts = [tuple(map(float, p)) for p in rng.uniform(0, 50, (n_mob, 2))]
        tgt_pts = [tuple(map(float, p)) for p in rng.uniform(0, 50, (n_tgt, 2))]
        field = make_field(
            50.0, 50.0, 1.0, [], [(i, x, y, 1.0) for i, (x, y) in enumerate(mob_pts)]
        )
        # (cell_id, hole area, target point) of each hole
        targets = [(j, 1.0 + j, (x, y)) for j, (x, y) in enumerate(tgt_pts)]
        ranked, unserved = rank_holes(targets, n_mob)
        plan = plan_relocation(
            [h[0] for h in ranked], ["circumcenter"] * len(ranked), [h[2] for h in ranked],
            field, unserved,
        )
        by_area = sorted(targets, key=lambda t: (-t[1], t[0]))
        served = by_area[:n_mob]
        assert plan.unserved == tuple(t[0] for t in by_area[n_mob:])
        best = min(
            (
                sum(
                    hypot(mob_pts[p][0] - t[2][0], mob_pts[p][1] - t[2][1])
                    for p, t in zip(perm, served)
                )
                for perm in itertools.permutations(range(n_mob), len(served))
            ),
            default=0.0,
        )
        assert plan.total_movement == pytest.approx(best, rel=1e-9, abs=1e-9)
    print("PASS criterion 9: planner matches brute-force optimum on 200 instances")


def test_criterion_10_pipeline_determinism(tmp_path):
    def run_once(tag):
        scen = tmp_path / f"scenario{tag}.json"
        det = tmp_path / f"detect{tag}.json"
        plan = tmp_path / f"plan{tag}.json"
        ver = tmp_path / f"verify{tag}.json"
        svg = tmp_path / f"render{tag}.svg"
        for argv in (
            [
                "generate", "--width", "60", "--height", "60",
                "--n-stationary", "30", "--n-mobile", "4",
                "--radius", "6", "--mobile-radius", "6",
                "--seed", "2026", "--out", str(scen),
            ],
            ["detect", "--scenario", str(scen), "--out", str(det)],
            [
                "plan", "--scenario", str(scen), "--report", str(det),
                "--mobile-radius", "6", "--out", str(plan),
            ],
            [
                "verify", "--scenario", str(scen), "--report", str(plan),
                "--samples", "100000", "--seed", "11", "--out", str(ver),
            ],
            [
                "render", "--scenario", str(scen), "--report", str(plan),
                "--out", str(svg),
            ],
        ):
            assert main(argv) == 0, argv
        return scen, det, plan, ver, svg

    first = run_once("_run1")
    second = run_once("_run2")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name
    # canonical JSON also survives parse -> serialize unchanged
    from tricover import canonical_json_bytes

    for path in first[:4]:
        assert canonical_json_bytes(json.loads(path.read_text())) == path.read_bytes()
    print("PASS criterion 10: all five stages byte-identical across re-runs")
