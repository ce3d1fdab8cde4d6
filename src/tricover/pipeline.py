"""End-to-end operations behind the CLI subcommands.

Each stage is a pure function from documents to documents; determinism is
inherited from the seeded generator, the canonical mesh, and the exact
geometry, so re-running any stage on the same inputs reproduces its output
byte for byte.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .field import MobileSensor, Sensor, SensorField, check_field_size
from .files import ReportDoc, ScenarioDoc, round_sig
from .geometry import Point
from .healing import check_mobile_radius, plan_relocation, rank_holes, select_targets
from .holes import HoleReports, detect_holes
from .mesh import TriMesh, _columns, triangulate
from .oracle import mc_coverage_fraction

# Report-metadata note for the vertex-sector total used by the case formula.
SECTOR_SUM_CONVENTION = "0.5*pi*R^2"
# The most sensors a generated scenario holds. Generating and saving one
# takes about 1 kB of memory per sensor, so a million is about 1 GB; a larger
# count is refused before anything is drawn.
_MAX_SENSORS = 10**6


def generate_scenario(
    width: float,
    height: float,
    n_stationary: int,
    n_mobile: int,
    sensing_radius: float,
    mobile_radius: float,
    seed: int,
) -> ScenarioDoc:
    """Uniform random scenario; same seed, same scenario, bit for bit.

    Stationary sensors get ids ``0..n_stationary-1``, mobiles continue the
    sequence. Positions are quantized to the file precision at creation so
    the in-memory field equals its round-tripped form exactly. A scenario
    holds at most a million sensors in all.
    """
    if n_stationary < 3:
        raise InvalidInputError(
            f"need at least 3 stationary sensors, got {n_stationary}"
        )
    if n_mobile < 0:
        raise InvalidInputError(f"mobile count must be >= 0, got {n_mobile}")
    if n_stationary + n_mobile > _MAX_SENSORS:
        raise InvalidInputError(
            f"sensor count must be at most {_MAX_SENSORS}, got {n_stationary} stationary"
            f" and {n_mobile} mobile"
        )
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    check_field_size(width, height, sensing_radius)
    check_mobile_radius(mobile_radius)
    rng = np.random.default_rng(seed)
    coords = rng.random((n_stationary + n_mobile, 2))
    coords[:, 0] *= width
    coords[:, 1] *= height
    stationary = tuple(
        Sensor(i, Point(round_sig(coords[i, 0]), round_sig(coords[i, 1])))
        for i in range(n_stationary)
    )
    mobile = tuple(
        MobileSensor(
            n_stationary + j,
            Point(
                round_sig(coords[n_stationary + j, 0]),
                round_sig(coords[n_stationary + j, 1]),
            ),
            mobile_radius,
        )
        for j in range(n_mobile)
    )
    field = SensorField(
        width=width,
        height=height,
        sensing_radius=sensing_radius,
        stationary=stationary,
        mobile=mobile,
    )
    meta = {
        "seed": seed,
        "n_stationary": n_stationary,
        "n_mobile": n_mobile,
        "generator": "uniform",
    }
    return ScenarioDoc(field=field, meta=meta)


def _hole_reports_to_entries(reports: HoleReports, mesh: TriMesh) -> list:
    columns = (
        reports.cell_id,
        mesh.cells[reports.cell_id],  # cell ``i`` is row ``i``
        reports.label,
        reports.hole_area,
        reports.method,
        reports.is_hole,
    )
    return [
        {"id": i, "vertices": v, "case": case, "s_h": s_h, "method": method, "is_hole": is_hole}
        for i, v, case, s_h, method, is_hole in zip(*(c.tolist() for c in columns))
    ]


def run_detect(scenario: ScenarioDoc, epsilon: float | None = None) -> ReportDoc:
    """Triangulate, evaluate every cell, and build the detection report.

    ``meta.method`` is always ``"auto"``: each cell's route is picked by the
    case formula's validity predicate alone.
    """
    mesh = triangulate(scenario.field)
    reports = detect_holes(mesh, scenario.field.sensing_radius, epsilon=epsilon)
    meta = {
        "method": "auto",
        "sector_sum_convention": SECTOR_SUM_CONVENTION,
    }
    if epsilon is not None:
        meta["epsilon"] = epsilon
    return ReportDoc(
        scenario_hash=scenario.hash(),
        mesh=mesh.summary(),
        triangles=_hole_reports_to_entries(reports, mesh),
        meta=meta,
    )


def _centers(xy: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The circumcenter and the incenter of each triangle of the vertex
    columns ``xy`` ``(T, 3, 2)`` and ``sides`` ``(T, 3)`` of
    ``mesh._columns``, as two ``(T, 2)`` columns; no triangle may be
    degenerate.

    They repeat the float operations of the tests' scalar ``circumcenter``
    and ``incenter`` (``tests/oracles.py``) in their order, so every value is
    bit-identical.
    """
    p1, p2, p3 = xy[:, 0], xy[:, 1], xy[:, 2]
    e2, e3 = p2 - p1, p3 - p1
    bx, by, cx, cy = e2[:, 0], e2[:, 1], e3[:, 0], e3[:, 1]
    den = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    circumcenter = p1 + np.stack([(cy * b2 - by * c2) / den, (bx * c2 - cx * b2) / den], axis=1)
    a, b, c = sides[:, 0:1], sides[:, 1:2], sides[:, 2:3]
    incenter = (a * p1 + b * p2 + c * p3) / (a + b + c)
    return circumcenter, incenter


def targets_from_report(
    report: ReportDoc, scenario: ScenarioDoc, mobile_radius: float
) -> tuple[list[int], np.ndarray, np.ndarray, tuple[int, ...]]:
    """The targets of the holes the scenario's mobiles serve, as the columns
    :func:`plan_relocation` takes, and the other holes' cell ids:
    ``(cell_ids, kinds, points, unserved)``.

    The report must belong to ``scenario`` (:meth:`ReportDoc.check_scenario`).
    Holes are ranked by their ``s_h`` (:func:`rank_holes`); only the served
    ones get a triangle, by ``mesh._columns`` on their vertices, and their
    targets are chosen from its center columns at once
    (:func:`select_targets`). A served hole whose triangle is degenerate is
    refused as ``degenerate-geometry`` before any target is chosen.
    """
    if report.triangles is None:
        raise InvalidInputError("report has no detection section")
    report.check_scenario(scenario)
    field = scenario.field
    positions = {s.id: s.position for s in field.stationary}
    holes = [(e["id"], e["s_h"], e["vertices"]) for e in report.triangles if e["is_hole"]]
    served, unserved = rank_holes(holes, len(field.mobile))
    # The served holes' vertex positions, three rows a hole.
    points = np.array([positions[v] for h in served for v in h[2]], dtype=float).reshape(-1, 2)
    xy, sides, _, degenerate = _columns(points, np.arange(len(points)).reshape(-1, 3))
    if degenerate.any():
        cell_id = served[int(np.argmax(degenerate))][0]
        raise DegenerateGeometryError(f"served hole {cell_id} is a degenerate triangle")
    kinds, targets = select_targets(
        [h[1] for h in served], *_centers(xy, sides), mobile_radius, (field.width, field.height)
    )
    return [h[0] for h in served], kinds, targets, unserved


def run_plan(
    report: ReportDoc, scenario: ScenarioDoc, mobile_radius: float
) -> ReportDoc:
    """Extend a detection report with a relocation plan.

    Any earlier ``verify`` section is dropped: it measured the plan this one
    replaces.

    ``mobile_radius`` must be finite and > 0 (``invalid-input``); it is
    checked before any target is built.
    """
    check_mobile_radius(mobile_radius)
    cell_ids, kinds, points, unserved = targets_from_report(report, scenario, mobile_radius)
    plan = plan_relocation(cell_ids, kinds, points, scenario.field, unserved)
    section = {
        "mobile_radius": mobile_radius,
        "assignments": list(plan.assignments),
        "total_movement": plan.total_movement,
        "unserved": list(plan.unserved),
    }
    return dataclasses.replace(report, plan=section, verify=None)


def _moves_from_plan(plan: dict) -> dict[int, Point]:
    """A plan's assignments as ``{mobile_id: target}``.

    The plan is not checked here; ``run_verify`` checks it against its
    scenario first (:meth:`ReportDoc.check_scenario`).
    """
    return {
        a["mobile_id"]: Point(float(a["target"]["x"]), float(a["target"]["y"]))
        for a in plan["assignments"]
    }


def run_verify(
    scenario: ScenarioDoc, report: ReportDoc | None, samples: int, seed: int
) -> ReportDoc:
    """Add a Monte-Carlo coverage section, before and after the report's plan.

    Without a report a fresh one for ``scenario`` is started; a given report
    must belong to ``scenario`` (:meth:`ReportDoc.check_scenario`), which is
    checked before any sample is drawn. Without a plan nothing moves and the
    two fractions are equal.
    """
    if report is None:
        report = ReportDoc(scenario_hash=scenario.hash())
    else:
        report.check_scenario(scenario)
    moves = None
    if report.plan is not None:
        moves = _moves_from_plan(report.plan)
    estimate = mc_coverage_fraction(scenario.field, samples, seed, moves)
    return dataclasses.replace(report, verify=dataclasses.asdict(estimate))
