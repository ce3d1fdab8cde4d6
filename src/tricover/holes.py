"""Per-triangle coverage-hole areas over a sensor mesh.

Each mesh triangle has a disk of the field's sensing radius centered at
every vertex. The uncovered ("hole") area is computed by a closed-form
case formula whenever its validity predicate holds:

    hole = triangle_area - (pi/2) * R^2 + sum of half-lens corrections,

where (pi/2)*R^2 is the total area of the three vertex sectors (interior
angles sum to pi) and each edge shorter than 2R contributes back half the
two-disk lens the adjoining sectors double-count. The predicate demands
that every vertex sector fits inside the triangle (so every half-lens does
too) and that the three disks share no point inside the triangle. When
either part fails, an exact boundary-integral fallback is used instead;
both routes are exact on their domains. The predicate alone picks each
cell's route (:func:`hole_area`); there is no override.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite, pi, sqrt

from .errors import DegenerateGeometryError, InvalidInputError
from .geometry import (
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
    """The two conditions of the case-formula validity predicate."""

    sectors_contained: bool
    triple_overlap_empty: bool

    def all_hold(self) -> bool:
        return self.sectors_contained and self.triple_overlap_empty


@dataclass(frozen=True)
class HoleComputation:
    """A hole-area evaluation; ``method`` records which route produced ``s_h``."""

    s_h: float
    method: str


@dataclass(frozen=True)
class HoleReport:
    """Detection result for one mesh cell."""

    cell_id: int
    label: CaseLabel
    method: str
    is_hole: bool
    hole_area: float


def hole_epsilon(radius: float) -> float:
    """Default significance threshold for hole areas."""
    return _HOLE_EPSILON_FACTOR * radius * radius


def _require_radius(radius: float) -> None:
    if not (isfinite(radius) and radius > 0):
        raise InvalidInputError(f"sensing radius must be > 0, got {radius}")


def _require_analysable(tri: TriangleGeom, radius: float) -> None:
    _require_radius(radius)
    if tri.degenerate:
        raise DegenerateGeometryError("triangle is degenerate")


def exact_uncovered_area(tri: TriangleGeom, radius: float) -> float:
    """Exact triangle area outside all three vertex disks, in ``[0, area]``
    because the covered area is clamped to it."""
    _require_analysable(tri, radius)
    covered = triangle_disks_covered_area(tri, [(v, radius) for v in tri.vertices])
    return tri.area - covered


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


def _sectors_contained(tri: TriangleGeom, radius: float) -> bool:
    verts = tri.vertices
    slack = _PREDICATE_SLACK * radius
    if radius > min(tri.sides) + slack:
        return False
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if radius > point_segment_distance(verts[i], verts[j], verts[k]) + slack:
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
    """Sector containment and an empty triple overlap.

    The formula also needs each inward half-lens inside the triangle, which
    sector containment implies. Let every vertex be at least R from its
    opposite side segment, and p be a point of the half-lens over edge AB
    strictly outside line CA. Segment Bp crosses line CA at q on the ray
    from A through C. If q lies on AC, dist(B, AC) <= |Bq| < |Bp| <= R,
    against the sector condition. Otherwise p is also strictly outside line
    BC, in the vertical angle at C, where |Ap| > |AC| >= R if C <= 90 deg,
    and |Ap| > h_A > h_C >= R if C is obtuse (AB is then the longest side).
    So p is not in disk A. Line BC is symmetric.
    """
    _require_analysable(tri, radius)
    sectors = _sectors_contained(tri, radius)
    triple_empty = radius <= _min_enclosing_radius(tri) + _PREDICATE_SLACK * radius
    return ValidityFlags(sectors, triple_empty)


# --- hole area --------------------------------------------------------------


def _case_value(tri: TriangleGeom, radius: float) -> float:
    """The case formula: triangle area minus the vertex sectors plus half
    the lens over each overlapping edge."""
    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    halves = [
        0.5 * lens_area(radius, radius, d)
        for d in (tri.c, tri.b, tri.a)
        if d < two_r - tol
    ]
    return tri.area - 0.5 * pi * radius * radius + sum(halves)


def hole_area(tri: TriangleGeom, radius: float) -> HoleComputation:
    """Uncovered area of a triangle under its three vertex disks.

    The case formula is used where its validity predicate holds, the exact
    fallback everywhere else. The result is clamped to ``[0, triangle area]``.
    """
    if case_formula_validity(tri, radius).all_hold():  # checks tri and radius
        value = _case_value(tri, radius)
        chosen = CASE_FORMULA
    else:
        value = exact_uncovered_area(tri, radius)
        chosen = EXACT_FALLBACK
    value = min(max(value, 0.0), tri.area)
    return HoleComputation(s_h=value, method=chosen)


def detect_holes(
    mesh: TriMesh, radius: float, epsilon: float | None = None
) -> list[HoleReport]:
    """Evaluate every mesh cell under vertex disks of ``radius`` and report holes, largest first.

    Reports are sorted by descending hole area, ties by ascending cell id.
    ``epsilon`` (finite, >= 0) overrides the default significance threshold
    ``1e-9 * R^2``. A degenerate cell is reported as label ``F`` with
    ``s_h = 0``, not a hole, without a hole-area evaluation.
    """
    _require_radius(radius)
    eps = hole_epsilon(radius) if epsilon is None else epsilon
    if not (isfinite(eps) and eps >= 0.0):
        raise InvalidInputError(f"hole epsilon must be finite and >= 0, got {eps}")
    reports = []
    for cell_id, geom in enumerate(mesh.geoms):
        if geom.degenerate:
            # A sliver such as Qhull keeps on the hull, of area below the
            # degeneracy bound 1e-12 * (longest side)^2: reported as covered
            # with s_h = 0 (a closed-form value, hence CASE_FORMULA) and never
            # measured, since the exact integral is not meaningful on it.
            reports.append(HoleReport(cell_id, CaseLabel.F, CASE_FORMULA, False, 0.0))
            continue
        computation = hole_area(geom, radius)
        reports.append(
            HoleReport(
                cell_id=cell_id,
                label=_label(geom, radius, computation.s_h < eps),
                method=computation.method,
                is_hole=computation.s_h > eps,
                hole_area=computation.s_h,
            )
        )
    reports.sort(key=lambda r: (-r.hole_area, r.cell_id))
    return reports
