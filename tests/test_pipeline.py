"""Python-API pipeline tests: generation, plan round trips, verification."""
from __future__ import annotations

import dataclasses
from math import ceil, floor, fsum, inf, ldexp, log2, nextafter, pi, sqrt

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

import tricover.holes
import tricover.pipeline
from fields import make_field
from tricover import (
    DegenerateGeometryError,
    InvalidInputError,
    Point,
    generate_scenario,
    detect_holes,
    hole_epsilon,
    mc_coverage_fraction,
    round_sig,
    run_detect,
    run_plan,
    run_verify,
    scenario_from_dict,
    select_target,
    targets_from_report,
    triangle_from_vertices,
    triangulate,
)
from tricover.field import LENGTH_RANGE


def small_scenario(seed=42):
    return generate_scenario(
        width=40.0,
        height=40.0,
        n_stationary=20,
        n_mobile=3,
        sensing_radius=4.0,
        mobile_radius=4.0,
        seed=seed,
    )


def entry_triangles(report, doc):
    """(entry, triangle) for each report entry, built from its vertex ids."""
    positions = {s.id: s.position for s in doc.field.stationary}
    return [
        (e, triangle_from_vertices(*(positions[v] for v in e["vertices"])))
        for e in report.triangles
    ]


# --- generate_scenario ---------------------------------------------------------


def test_generate_deterministic_and_seed_sensitive():
    a = generate_scenario(10.0, 10.0, 5, 2, 1.0, 1.0, seed=3)
    b = generate_scenario(10.0, 10.0, 5, 2, 1.0, 1.0, seed=3)
    c = generate_scenario(10.0, 10.0, 5, 2, 1.0, 1.0, seed=4)
    assert a.field == b.field
    assert a.hash() == b.hash()
    assert a.field != c.field


def test_generate_ids_and_bounds():
    doc = small_scenario()
    f = doc.field
    assert [s.id for s in f.stationary] == list(range(20))
    assert [m.id for m in f.mobile] == [20, 21, 22]
    for s in (*f.stationary, *f.mobile):
        assert 0.0 <= s.position.x <= 40.0
        assert 0.0 <= s.position.y <= 40.0
    assert doc.meta["seed"] == 42
    assert doc.meta["n_stationary"] == 20
    assert doc.meta["n_mobile"] == 3


def test_generate_positions_survive_round_trip_exactly():
    doc = small_scenario()
    back = scenario_from_dict(doc.to_dict())
    assert back.field == doc.field
    for s in doc.field.stationary:
        assert s.position.x == round_sig(s.position.x)
        assert s.position.y == round_sig(s.position.y)


def test_generate_validates_counts():
    with pytest.raises(InvalidInputError):
        generate_scenario(10.0, 10.0, 2, 0, 1.0, 1.0, seed=1)
    with pytest.raises(InvalidInputError):
        generate_scenario(10.0, 10.0, 5, -1, 1.0, 1.0, seed=1)


# --- run_detect ------------------------------------------------------------------


def test_run_detect_report_shape():
    doc = small_scenario()
    report = run_detect(doc)
    assert report.scenario_hash == doc.hash()
    assert report.meta["method"] == "auto"
    assert "sector_sum_convention" in report.meta
    assert report.mesh["sites"] == 20
    entries = report.triangles
    # largest hole first, ties by cell id
    keys = [(-e["s_h"], e["id"]) for e in entries]
    assert keys == sorted(keys)
    assert sorted(e["id"] for e in entries) == list(range(len(entries)))
    for e in entries:
        assert set(e) >= {"id", "vertices", "case", "s_h", "method", "is_hole"}
        assert e["s_h"] >= 0.0
        assert e["case"] in set("ABCDEFGHI")


def test_detect_runs_exact_integral_once_per_exact_route_cell(monkeypatch):
    doc = generate_scenario(100.0, 100.0, 200, 0, 5.0, 5.0, seed=42)
    calls = []
    original = tricover.holes.exact_uncovered_area

    def counted(tri, radius):
        calls.append(1)
        return original(tri, radius)

    monkeypatch.setattr(tricover.holes, "exact_uncovered_area", counted)
    report = run_detect(doc)
    exact_cells = sum(1 for e in report.triangles if e["method"] == "exact-fallback")
    assert 0 < exact_cells < len(report.triangles)
    assert len(calls) == exact_cells


def test_detect_builds_lens_terms_only_on_the_case_route(monkeypatch):
    radius = 5.0
    doc = generate_scenario(100.0, 100.0, 200, 0, radius, radius, seed=42)
    calls = []
    original = tricover.holes._half_lenses

    def counted(R, d):
        calls.extend(d.tolist())
        return original(R, d)

    monkeypatch.setattr(tricover.holes, "_half_lenses", counted)
    report = run_detect(doc)
    short = {"case-formula": [], "exact-fallback": []}
    for e, t in entry_triangles(report, doc):
        short[e["method"]].extend(d for d in t.sides if d < 2 * radius - 1e-9 * radius)
    # exact-route cells have overlapping edges too, and get no lens term
    assert short["case-formula"] and short["exact-fallback"]
    assert sorted(calls) == sorted(short["case-formula"])


def test_detect_evaluates_validity_only_where_it_picks_the_route(monkeypatch):
    """One kernel call per ``detect_holes`` call picks every cell's route;
    ``hole_area``, the exact route, runs once per exact-route cell and on
    no other."""
    doc = generate_scenario(100.0, 100.0, 200, 0, 5.0, 5.0, seed=42)
    calls = {"kernel": 0, "hole_area": 0}
    kernel, hole_area = tricover.holes._detect_columns, tricover.holes.hole_area

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def counted_hole_area(tri, radius):
        calls["hole_area"] += 1
        return hole_area(tri, radius)

    monkeypatch.setattr(tricover.holes, "_detect_columns", counted_kernel)
    monkeypatch.setattr(tricover.holes, "hole_area", counted_hole_area)
    report = run_detect(doc)
    exact_cells = sum(1 for e in report.triangles if e["method"] == "exact-fallback")
    assert 0 < exact_cells < len(report.triangles)
    assert calls == {"kernel": 1, "hole_area": exact_cells}


@pytest.mark.parametrize("method", ["auto"])  # the report's constant ``meta.method``
@pytest.mark.parametrize("radius", [5.0, 2.5])  # R* and R*/2 for 200 sites
def test_detect_entry_invariants(method, radius):
    doc = generate_scenario(100.0, 100.0, 200, 0, radius, radius, seed=42)
    report = run_detect(doc)
    assert report.meta["method"] == method
    eps = hole_epsilon(radius)
    for e, t in entry_triangles(report, doc):
        assert 0.0 <= e["s_h"] <= t.area
        assert e["is_hole"] == (e["s_h"] > eps)
        assert (e["case"] == "F") == (e["s_h"] < eps)


# --- planning round trips -----------------------------------------------------------


def test_plan_does_not_redetect(monkeypatch):
    doc = small_scenario()
    report = run_detect(doc)
    expected = run_plan(report, doc, mobile_radius=4.0)

    def refuse(*args, **kwargs):
        raise AssertionError("plan must build targets from the report")

    monkeypatch.setattr(tricover.pipeline, "triangulate", refuse)
    monkeypatch.setattr(tricover.pipeline, "detect_holes", refuse)
    assert run_plan(report, doc, mobile_radius=4.0) == expected
    assert expected.plan["assignments"]


def test_target_kind_follows_report_hole_area():
    doc = small_scenario()
    report = run_detect(doc)
    hole = next(e for e in report.triangles if e["is_hole"])
    mobile_radius = 4.0
    capacity = pi * mobile_radius**2

    def kind_at(s_h):
        entries = [dict(e, s_h=s_h) if e is hole else e for e in report.triangles]
        edited = dataclasses.replace(report, triangles=entries)
        targets, _ = targets_from_report(edited, doc, mobile_radius)
        return next(t.kind for t in targets if t.cell_id == hole["id"])

    assert kind_at(capacity) == "circumcenter"
    assert kind_at(nextafter(capacity, inf)) == "incenter"


def test_targets_respect_field_bounds():
    # small_scenario's sites with a mobile for each of its 24 holes
    doc = generate_scenario(40.0, 40.0, 20, 30, 4.0, 4.0, seed=42)
    report = run_detect(doc)
    targets, unserved = targets_from_report(report, doc, mobile_radius=4.0)
    assert len(targets) == 24 and unserved == ()
    for t in targets:
        assert 0.0 <= t.point.x <= doc.field.width
        assert 0.0 <= t.point.y <= doc.field.height


@pytest.mark.parametrize("n_mobile", [0, 3, 30])  # 24 holes
def test_plan_builds_targets_only_for_served_holes(monkeypatch, n_mobile):
    doc = generate_scenario(40.0, 40.0, 20, n_mobile, 4.0, 4.0, seed=42)
    report = run_detect(doc)
    bounds = (doc.field.width, doc.field.height)
    # every hole's target, built as the plan builds a served one
    every = {
        e["id"]: select_target(e["id"], e["s_h"], t, 4.0, bounds=bounds)
        for e, t in entry_triangles(report, doc)
        if e["is_hole"]
    }
    assert len(every) == 24
    ranked = sorted(
        (e for e in report.triangles if e["is_hole"]), key=lambda e: (-e["s_h"], e["id"])
    )
    served = [e["id"] for e in ranked[:n_mobile]]
    calls = {"select_target": [], "triangle_from_vertices": []}

    def counting(name):
        original = getattr(tricover.pipeline, name)

        def counted(*args, **kwargs):
            calls[name].append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(tricover.pipeline, name, counted)

    counting("select_target")
    counting("triangle_from_vertices")
    plan = run_plan(report, doc, mobile_radius=4.0).plan
    assert calls["select_target"] == served
    assert len(calls["triangle_from_vertices"]) == len(served)
    assert plan["unserved"] == [e["id"] for e in ranked[n_mobile:]]
    assert sorted(a["cell_id"] for a in plan["assignments"]) == sorted(served)
    for a in plan["assignments"]:
        target = every[a["cell_id"]]
        assert a["kind"] == target.kind
        assert a["target"] == {"x": target.point.x, "y": target.point.y}


@pytest.mark.parametrize("served", [True, False])
def test_degenerate_hole_vertices_fail_only_when_served(served):
    doc = small_scenario()  # 3 mobiles, 24 holes
    report = run_detect(doc)
    holes = [e for e in report.triangles if e["is_hole"]]  # largest first
    victim = holes[0] if served else holes[-1]
    a, b, _ = victim["vertices"]
    entries = [dict(e, vertices=[a, b, a]) if e is victim else e for e in report.triangles]
    edited = dataclasses.replace(report, triangles=entries)
    if served:
        with pytest.raises(DegenerateGeometryError):
            run_plan(edited, doc, mobile_radius=4.0)
    else:
        # an unserved hole gets no triangle, so its vertices are only resolved
        expected = run_plan(report, doc, mobile_radius=4.0).plan
        assert run_plan(edited, doc, mobile_radius=4.0).plan == expected
        assert expected["unserved"][-1] == victim["id"]


def test_plan_requires_detection():
    doc = small_scenario()
    from tricover import ReportDoc

    bare = ReportDoc(scenario_hash=doc.hash())
    with pytest.raises(InvalidInputError):
        run_plan(bare, doc, mobile_radius=4.0)


# --- run_verify ---------------------------------------------------------------------


def test_run_verify_paired_and_improving():
    doc = small_scenario()
    planned = run_plan(run_detect(doc), doc, mobile_radius=4.0)
    v = run_verify(doc, planned, samples=200_000, seed=7).verify
    assert v["seed"] == 7
    assert v["samples"] == 200_000
    assert v["after"] >= v["before"]
    # without a plan nothing moves: one estimate, reported twice
    v2 = run_verify(doc, run_detect(doc), samples=200_000, seed=7).verify
    assert v2["before"] == v2["after"] == v["before"]


def test_run_verify_without_report():
    doc = small_scenario()
    report = run_verify(doc, None, samples=10_000, seed=1)
    assert report.scenario_hash == doc.hash()
    assert report.triangles is None
    assert report.plan is None
    v = report.verify
    assert v["samples"] == 10_000
    assert v["seed"] == 1
    assert v["before"] == v["after"]
    assert v["half_width"] > 0


def test_run_verify_extends_existing_report():
    doc = small_scenario()
    planned = run_plan(run_detect(doc), doc, mobile_radius=4.0)
    extended = run_verify(doc, planned, samples=20_000, seed=9)
    assert extended.triangles == planned.triangles
    assert extended.plan == planned.plan
    assert extended.mesh == planned.mesh
    assert extended.meta == planned.meta
    moves = {
        a["mobile_id"]: Point(a["target"]["x"], a["target"]["y"])
        for a in planned.plan["assignments"]
    }
    est = mc_coverage_fraction(doc.field, 20_000, seed=9, moves=moves)
    assert extended.verify == dataclasses.asdict(est)


# --- whole-field invariants -------------------------------------------------------

# (stationary sites, mobiles, radius / R*, samples) of the benchmark's three
# workloads, with R* = 10 * sqrt(50 / sites) on a 100 x 100 field.
WORKLOAD_SHAPES = [(2000, 50, 1.0, 200_000), (2000, 50, 0.5, 200_000), (500, 100, 1.0, 500_000)]
# The two-sided 99% normal quantile, the level of verify's half-width.
Z99 = 2.5758293035489


@pytest.mark.parametrize("seed", [42, 1042])
@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
def test_healing_and_hole_area_invariants(shape, seed):
    """Healing never lowers the paired covered fraction, and the Monte-Carlo
    area inside the hull outside every stationary disk is at most the sum of
    ``s_h`` plus the 99% half-width.

    The second holds by set inclusion: each cell's ``s_h`` leaves out only
    its own three vertex disks, and the cells tile the hull.
    """
    n_stationary, n_mobile, radius_factor, samples = shape
    radius = radius_factor * 10.0 * sqrt(50.0 / n_stationary)
    doc = generate_scenario(100.0, 100.0, n_stationary, n_mobile, radius, radius, seed)
    report = run_detect(doc)
    verify = run_verify(doc, run_plan(report, doc, radius), samples, seed).verify
    assert verify["after"] >= verify["before"]

    field = doc.field
    sites = np.array([[s.position.x, s.position.y] for s in field.stationary])
    points = np.random.default_rng(seed).random((samples, 2)) * [field.width, field.height]
    inside = points[Delaunay(sites).find_simplex(points) >= 0]
    distance, _ = cKDTree(sites).query(inside, distance_upper_bound=radius)
    p = np.count_nonzero(distance > radius) / samples
    field_area = field.width * field.height
    area = field_area * p
    half_width = Z99 * field_area * sqrt(p * (1.0 - p) / samples)
    assert area <= fsum(e["s_h"] for e in report.triangles) + half_width


# --- the length range ---------------------------------------------------------------


def scaled(field, k):
    """``field`` with every length and position multiplied by exactly ``2**k``."""
    return dataclasses.replace(
        field,
        width=ldexp(field.width, k),
        height=ldexp(field.height, k),
        sensing_radius=ldexp(field.sensing_radius, k),
        stationary=[dataclasses.replace(s, position=scaled_point(s.position, k)) for s in field.stationary],
        mobile=[
            dataclasses.replace(m, position=scaled_point(m.position, k), radius=ldexp(m.radius, k))
            for m in field.mobile
        ],
    )


def scaled_point(p, k):
    return Point(ldexp(p.x, k), ldexp(p.y, k))


def detected(field):
    """``(label, method, is_hole, hole_area)`` of each cell id."""
    r = detect_holes(triangulate(field), field.sensing_radius)
    rows = zip(r.label.tolist(), r.method.tolist(), r.is_hole.tolist(), r.hole_area.tolist())
    return dict(zip(r.cell_id.tolist(), rows))


# The benchmark's workload shapes, reduced: (sites, mobiles, radius / R*, samples).
SCALE_SHAPES = [(300, 10, 1.0, 20_000), (300, 10, 0.5, 20_000), (100, 20, 1.0, 50_000)]


@pytest.mark.parametrize("shape", SCALE_SHAPES)
def test_answers_are_the_same_at_both_ends_of_the_length_range(shape):
    """Scaled by 2**k so that its smallest length is near the bottom of
    ``LENGTH_RANGE``, or its largest near the top, a field gets the same
    labels, routes and holes, hole areas times exactly 4**k, and the same
    verify fractions."""
    n_stationary, n_mobile, radius_factor, samples = shape
    radius = radius_factor * 10.0 * sqrt(50.0 / n_stationary)
    doc = generate_scenario(100.0, 100.0, n_stationary, n_mobile, radius, radius, seed=3)
    field = doc.field
    plan = run_plan(run_detect(doc), doc, radius).plan
    moves = {a["mobile_id"]: Point(a["target"]["x"], a["target"]["y"]) for a in plan["assignments"]}
    assert moves
    base = detected(field)
    fractions = mc_coverage_fraction(field, samples, 3, moves)
    low, high = LENGTH_RANGE
    lengths = [field.width, field.height, radius]
    ks = [ceil(log2(low / min(lengths))), floor(log2(high / max(lengths)))]
    assert ks[0] < -190 and ks[1] > 190
    for k in ks:
        at_k = scaled(field, k)
        assert low <= min(lengths) * 2.0**k and max(lengths) * 2.0**k <= high
        cells = detected(at_k)
        assert cells.keys() == base.keys()
        for cell_id, (*r, hole) in base.items():
            *s, scaled_hole = cells[cell_id]
            assert s == r
            assert scaled_hole == ldexp(hole, 2 * k)
        moved = {i: scaled_point(p, k) for i, p in moves.items()}
        estimate = mc_coverage_fraction(at_k, samples, 3, moved)
        assert (estimate.before, estimate.after) == (fractions.before, fractions.after)


@pytest.mark.parametrize("covered", [False, True])
def test_sides_and_radius_at_opposite_ends_of_the_length_range(covered):
    """Disks far smaller than the cells leave every cell an ``A`` hole of
    its own area, and nothing covered; disks far larger cover every cell."""
    low, high = LENGTH_RANGE
    side, radius = (low, high) if covered else (high, low)
    doc = generate_scenario(side, side, 100, 5, radius, radius, seed=3)
    mesh = triangulate(doc.field)
    reports = detect_holes(mesh, radius)
    assert set(reports.label.tolist()) == {"F" if covered else "A"}
    assert set(reports.is_hole.tolist()) == {not covered}
    if not covered:
        assert reports.hole_area.tolist() == pytest.approx(
            mesh.area[reports.cell_id].tolist(), rel=1e-12
        )
    estimate = mc_coverage_fraction(doc.field, 10_000, 3)
    assert estimate.before == estimate.after == float(covered)


@pytest.mark.parametrize("k", [-1, 1])
def test_lengths_just_outside_the_range_are_refused(k):
    low, high = LENGTH_RANGE
    outside = nextafter(low, 0.0) if k < 0 else nextafter(high, inf)
    for width, height, radius, mobile in (
        (outside, 1.0, 1.0, 1.0), (1.0, outside, 1.0, 1.0), (1.0, 1.0, outside, 1.0),
        (1.0, 1.0, 1.0, outside),
    ):
        with pytest.raises(InvalidInputError, match=r"must lie in \[2\^-200, 2\^200\], got "):
            make_field(width, height, radius, [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0)],
                       [(3, 0.5, 0.5, mobile)])
    make_field(low if k < 0 else high, 1.0, 1.0, [(0, 0.0, 0.0)], [(1, 0.0, 0.0, 1.0)])
