"""Per-triangle coverage-hole areas over a sensor mesh.

Each mesh triangle has a disk of the field's sensing radius centered at
every vertex. The uncovered ("hole") area is computed by a closed-form
case formula whenever its validity predicate holds:

    hole = triangle_area - (pi/2) * R^2 + sum of half-lens corrections,

where (pi/2)*R^2 is the total area of the three vertex sectors (interior
angles sum to pi) and each edge shorter than 2R contributes back half the
two-disk lens the adjoining sectors double-count. The predicate demands
that every vertex sector fits inside the triangle, that every half-lens
lies inside the triangle, and that the three disks share no point inside
the triangle. When any part fails, an exact boundary-integral fallback is
used instead; both routes are exact on their domains.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import hypot, isfinite, pi, sqrt

from .errors import DegenerateGeometryError, InconsistentInputError, InvalidInputError
from .field import SensorField
from .geometry import (
    Point,
    TriangleGeom,
    lens_area,
    point_segment_distance,
    triangle_disks_covered_area,
)
from .mesh import TriMesh

# |d - 2R| <= _TANGENCY_FACTOR * R counts as a tangent (zero-lens) pair.
_TANGENCY_FACTOR = 1e-9
# Default hole-significance threshold: s_h > 1e-9 * R^2.
_HOLE_EPSILON_FACTOR = 1e-9
# Slack for the validity predicate's containment comparisons.
_PREDICATE_SLACK = 1e-12

CASE_FORMULA = "case-formula"
EXACT_FALLBACK = "exact-fallback"

_METHODS = ("auto", "case", "exact")


class CaseLabel(enum.Enum):
    """Coverage configuration of a triangle's three vertex disks.

    Determined by each side's relation to twice the sensing radius
    (shorter = overlapping pair, equal within tolerance = tangent pair,
    longer = separated pair) plus a full-coverage test:

    - A: all three sides longer than 2R
    - B: all three sides equal to 2R (three tangent pairs)
    - C: exactly two tangent pairs, none overlapping (computes like A)
    - D: exactly one overlapping pair
    - E: exactly two overlapping pairs
    - F: triangle fully covered (zero hole)
    - G: one overlapping pair plus a tangent pair (computes like D)
    - H: one tangent pair, none overlapping (computes like A)
    - I: all three pairs overlapping, triangle not fully covered
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"
    I = "I"


@dataclass(frozen=True)
class ValidityFlags:
    """The three parts of the case-formula validity predicate."""

    sectors_contained: bool
    lenses_contained: bool
    triple_overlap_empty: bool

    def all_hold(self) -> bool:
        return (
            self.sectors_contained
            and self.lenses_contained
            and self.triple_overlap_empty
        )


@dataclass(frozen=True)
class HoleComputation:
    """A hole-area evaluation.

    ``method`` records which route produced ``s_h``; ``validity`` holds the
    case-formula predicate, evaluated on every route.
    """

    s_h: float
    method: str
    validity: ValidityFlags


@dataclass(frozen=True)
class HoleReport:
    """Detection result for one mesh cell."""

    cell_id: int
    label: CaseLabel
    computation: HoleComputation
    is_hole: bool
    hole_area: float


def hole_epsilon(radius: float) -> float:
    """Default significance threshold for hole areas."""
    return _HOLE_EPSILON_FACTOR * radius * radius


def _require_analysable(tri: TriangleGeom, radius: float) -> None:
    if radius <= 0:
        raise InvalidInputError(f"sensing radius must be > 0, got {radius}")
    if tri.degenerate:
        raise DegenerateGeometryError("triangle is degenerate")


def exact_uncovered_area(tri: TriangleGeom, radius: float) -> float:
    """Exact triangle area outside all three vertex disks."""
    _require_analysable(tri, radius)
    covered = triangle_disks_covered_area(tri, [(v, radius) for v in tri.vertices])
    uncovered = tri.area - covered
    if uncovered < 0.0:
        uncovered = 0.0
    return uncovered


def _label(tri: TriangleGeom, radius: float, covered: bool) -> CaseLabel:
    """Label from the side relations, given whether the triangle is covered."""
    if covered:
        return CaseLabel.F
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    lt = sum(1 for d in tri.sides if d < two_r - tol)
    eq = sum(1 for d in tri.sides if abs(d - two_r) <= tol)
    if lt == 0:
        if eq == 3:
            return CaseLabel.B
        if eq == 2:
            return CaseLabel.C
        if eq == 1:
            return CaseLabel.H
        return CaseLabel.A
    if lt == 1:
        return CaseLabel.G if eq >= 1 else CaseLabel.D
    if lt == 2:
        return CaseLabel.E
    return CaseLabel.I


# --- validity predicate ----------------------------------------------------


# Local vertex index triples (i, j, k): edge i-j with opposite vertex k, so
# the edge's length is ``tri.sides[k]``.
_EDGES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _sectors_contained(tri: TriangleGeom, radius: float) -> bool:
    verts = tri.vertices
    slack = _PREDICATE_SLACK * radius
    if radius > min(tri.sides) + slack:
        return False
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if radius > point_segment_distance(verts[i], verts[j], verts[k]) + slack:
            return False
    return True


def _half_lens_contained(
    tri: TriangleGeom, i: int, j: int, k: int, radius: float
) -> bool:
    """Does the inward half of the lens over edge i-j stay inside the
    triangle? Checked exactly via the extreme points of the half-lens
    against the lines of the other two edges."""
    verts = tri.vertices
    vi, vj, vk = verts[i], verts[j], verts[k]
    d = hypot(vj.x - vi.x, vj.y - vi.y)
    ux, uy = (vj.x - vi.x) / d, (vj.y - vi.y) / d
    nx, ny = -uy, ux  # one normal of the edge line
    if (vk.x - vi.x) * nx + (vk.y - vi.y) * ny < 0.0:
        nx, ny = -nx, -ny  # make it point inward (toward vk)
    yc_sq = radius * radius - 0.25 * d * d
    yc = sqrt(yc_sq) if yc_sq > 0.0 else 0.0
    base1 = Point(vi.x + (d - radius) * ux, vi.y + (d - radius) * uy)
    base2 = Point(vi.x + radius * ux, vi.y + radius * uy)
    cusp = Point(
        vi.x + 0.5 * d * ux + yc * nx,
        vi.y + 0.5 * d * uy + yc * ny,
    )
    slack = _PREDICATE_SLACK * max(tri.sides)

    for a, b in ((vj, vk), (vk, vi)):
        ex, ey = b.x - a.x, b.y - a.y
        elen = hypot(ex, ey)
        ox, oy = ey / elen, -ex / elen
        # orient (ox, oy) outward: positive on the side away from the triangle
        interior = vi if (a, b) == (vj, vk) else vj
        if (interior.x - a.x) * ox + (interior.y - a.y) * oy > 0.0:
            ox, oy = -ox, -oy

        def h(p: Point) -> float:
            return (p.x - a.x) * ox + (p.y - a.y) * oy

        reach = max(h(base1), h(base2), h(cusp))
        for center, other in ((vi, vj), (vj, vi)):
            ext = Point(center.x + radius * ox, center.y + radius * oy)
            on_inner_side = (ext.x - vi.x) * nx + (ext.y - vi.y) * ny >= 0.0
            in_other_disk = hypot(ext.x - other.x, ext.y - other.y) <= radius
            if on_inner_side and in_other_disk:
                reach = max(reach, h(ext))
        if reach > slack:
            return False
    return True


def _min_enclosing_radius(tri: TriangleGeom) -> float:
    """Radius of the smallest circle containing all three vertices."""
    a2, b2, c2 = (s * s for s in tri.sides)
    longest2 = max(a2, b2, c2)
    if longest2 >= a2 + b2 + c2 - longest2:  # right or obtuse
        return 0.5 * sqrt(longest2)
    # acute: circumradius via R = abc / (4 * area)
    return (tri.a * tri.b * tri.c) / (4.0 * tri.area)


def case_formula_validity(tri: TriangleGeom, radius: float) -> ValidityFlags:
    """Evaluate the three containment conditions of the case formula."""
    _require_analysable(tri, radius)
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    sectors = _sectors_contained(tri, radius)
    lenses = True
    for i, j, k in _EDGES:
        if tri.sides[k] < two_r - tol and not _half_lens_contained(tri, i, j, k, radius):
            lenses = False
            break
    triple_empty = radius <= _min_enclosing_radius(tri) + _PREDICATE_SLACK * radius
    return ValidityFlags(sectors, lenses, triple_empty)


# --- hole area --------------------------------------------------------------


def _case_value(tri: TriangleGeom, radius: float) -> float:
    """The case formula: triangle area minus the vertex sectors plus half
    the lens over each overlapping edge, in ``_EDGES`` order."""
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    halves = [
        0.5 * lens_area(radius, radius, tri.sides[k])
        for _, _, k in _EDGES
        if tri.sides[k] < two_r - tol
    ]
    return tri.area - 0.5 * pi * radius * radius + sum(halves)


def hole_area(
    tri: TriangleGeom, radius: float, method: str = "auto"
) -> HoleComputation:
    """Uncovered area of a triangle under its three vertex disks.

    ``method``: ``auto`` uses the case formula when its validity predicate
    holds and the exact fallback otherwise; ``case`` / ``exact`` force one
    route (``case`` may be inexact when the predicate fails — the returned
    validity flags say so). The result is clamped to ``[0, triangle area]``.
    """
    if method not in _METHODS:
        raise InvalidInputError(
            f"method must be one of {_METHODS}, got {method!r}"
        )
    _require_analysable(tri, radius)
    validity = case_formula_validity(tri, radius)
    if method == "case" or (method == "auto" and validity.all_hold()):
        value = _case_value(tri, radius)
        chosen = CASE_FORMULA
    else:
        value = exact_uncovered_area(tri, radius)
        chosen = EXACT_FALLBACK
    value = min(max(value, 0.0), tri.area)
    return HoleComputation(s_h=value, method=chosen, validity=validity)


def detect_holes(
    field: SensorField,
    mesh: TriMesh,
    method: str = "auto",
    epsilon: float | None = None,
) -> list[HoleReport]:
    """Evaluate every mesh cell and report holes, largest first.

    Reports are sorted by descending hole area, ties by ascending cell id.
    ``epsilon`` (finite, >= 0) overrides the default significance threshold
    ``1e-9 * R^2``. The mesh must belong to the field (ids and positions
    must match), otherwise an ``inconsistent-input`` error is raised.
    """
    radius = field.sensing_radius
    eps = hole_epsilon(radius) if epsilon is None else epsilon
    if not (isfinite(eps) and eps >= 0.0):
        raise InvalidInputError(f"hole epsilon must be finite and >= 0, got {eps}")
    positions = {s.id: s.position for s in field.stationary}
    reports = []
    for cell in mesh.cells:
        for sid, vertex in zip(cell.sensor_ids, cell.geom.vertices):
            if sid not in positions:
                raise InconsistentInputError(
                    f"mesh cell {cell.id} references unknown sensor id {sid}"
                )
            if positions[sid] != vertex:
                raise InconsistentInputError(
                    f"mesh cell {cell.id}: sensor {sid} position differs "
                    "from the field"
                )
        computation = hole_area(cell.geom, radius, method=method)
        uncovered = computation.s_h
        if method == "case" and not computation.validity.all_hold():
            # The forced case formula is inexact here; label from the exact area.
            uncovered = exact_uncovered_area(cell.geom, radius)
        reports.append(
            HoleReport(
                cell_id=cell.id,
                label=_label(cell.geom, radius, uncovered < eps),
                computation=computation,
                is_hole=computation.s_h > eps,
                hole_area=computation.s_h,
            )
        )
    reports.sort(key=lambda r: (-r.hole_area, r.cell_id))
    return reports
