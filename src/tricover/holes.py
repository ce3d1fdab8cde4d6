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

:func:`detect_holes` evaluates the predicate, the case formula and the
labels on every cell of a mesh at once, over its columns, with the float
operations of the scalar predicate; only the exact-route cells go through
:func:`hole_area` one by one. :func:`hole_area` computes the case formula
with the same kernel, on one row.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import acos, isfinite, pi, sqrt

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .geometry import (
    TriangleGeom,
    point_segment_distance,
    triangle_disks_covered_area,
)
from .mesh import TriMesh, _hypot

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


@dataclass(frozen=True, eq=False)
class HoleReports:
    """The detection results of a mesh's cells, as columns in report order;
    ``label`` and ``method`` hold the strings a report file holds."""

    cell_id: np.ndarray
    label: np.ndarray
    method: np.ndarray
    is_hole: np.ndarray
    hole_area: np.ndarray


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


def hole_area(tri: TriangleGeom, radius: float) -> HoleComputation:
    """Uncovered area of a triangle under its three vertex disks.

    The case formula is used where its validity predicate holds, the exact
    fallback everywhere else. The result is clamped to ``[0, triangle area]``.
    """
    if case_formula_validity(tri, radius).all_hold():  # checks tri and radius
        value = float(_case_values(np.array([tri.sides]), np.array([tri.area]), radius)[0])
        chosen = CASE_FORMULA
    else:
        value = exact_uncovered_area(tri, radius)
        chosen = EXACT_FALLBACK
    value = min(max(value, 0.0), tri.area)
    return HoleComputation(s_h=value, method=chosen)


# --- the detect kernel --------------------------------------------------------
#
# Every cell at once, over the mesh's columns. The route repeats the float
# operations of the scalar predicate above in their order, so each cell takes
# the route ``hole_area`` takes. The case formula is the tests' scalar
# ``case_value`` and ``lens_area`` (``tests/oracles.py``), operation for
# operation, and matches them bit for bit: ``hypot`` and ``acos`` are
# ``math``'s, taken over lists, since ``np.hypot`` and ``np.arccos`` round some
# inputs differently (``np.sqrt`` is correctly rounded, as ``math.sqrt`` is).

# The ``CaseLabel`` of a cell that is not covered, as its docstring defines
# it, by the cell's counts of overlapping (row) and tangent (column) sides.
_UNCOVERED_LABELS = np.array([list("AHCB"), list("DGGG"), list("EEEE"), list("IIII")])


def _half_lenses(radius: float, d: np.ndarray) -> np.ndarray:
    """Half the lens of two disks of ``radius`` at each center distance
    ``0 < d < 2 * radius``: the two circular segments cut by the radical
    chord, as ``lens_area`` in ``tests/oracles.py`` adds them."""
    rr = radius * radius

    def segment(h: np.ndarray) -> np.ndarray:  # of height h; h < 0 is the majority side
        ratio = h / radius
        ratio = np.where(ratio < -1.0, -1.0, np.where(ratio > 1.0, 1.0, ratio))
        radicand = rr - h * h
        radicand = np.where(radicand < 0.0, 0.0, radicand)
        return rr * np.array(list(map(acos, ratio.tolist()))) - h * np.sqrt(radicand)

    x = (d * d - rr + rr) / (2.0 * d)
    area = segment(x) + segment(d - x)
    return 0.5 * np.where(area < 0.0, 0.0, area)


def _case_route(xy: np.ndarray, sides: np.ndarray, area: np.ndarray, radius: float) -> np.ndarray:
    """``case_formula_validity(tri, radius).all_hold()`` of each cell."""
    a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
    slack = _PREDICATE_SLACK * radius
    holds = ~(radius > np.minimum(np.minimum(a, b), c) + slack)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # point_segment_distance(verts[i], verts[j], verts[k]); t = 0 where
        # the segment is a point, which gives that function's hypot(wx, wy)
        v, w = xy[:, k] - xy[:, j], xy[:, i] - xy[:, j]
        vx, vy, wx, wy = v[:, 0], v[:, 1], w[:, 0], w[:, 1]
        seg2 = vx * vx + vy * vy
        t = np.where(seg2 == 0.0, 0.0, (wx * vx + wy * vy) / seg2)
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        holds &= ~(radius > _hypot(wx - t * vx, wy - t * vy) + slack)
    # _min_enclosing_radius
    a2, b2, c2 = a * a, b * b, c * c
    longest2 = np.maximum(np.maximum(a2, b2), c2)
    enclosing = np.where(
        longest2 >= a2 + b2 + c2 - longest2, 0.5 * np.sqrt(longest2), a * b * c / (4.0 * area)
    )
    return holds & (radius <= enclosing + _PREDICATE_SLACK * radius)


def _case_values(sides: np.ndarray, area: np.ndarray, radius: float) -> np.ndarray:
    """The case formula of each cell: area minus the vertex sectors plus half
    the lens over each overlapping side (``case_value`` in ``tests/oracles.py``)."""
    tol = _TANGENCY_FACTOR * radius
    cba = sides[:, ::-1]
    short = cba < 2.0 * radius - tol
    halves = np.zeros(cba.shape)
    halves[short] = _half_lenses(radius, cba[short])
    # The halves in (c, b, a) order onto a zero start; a side that is not
    # short adds +0.0 to a sum that is not -0.0, which leaves it unchanged.
    total = 0.0 + halves[:, 0] + halves[:, 1] + halves[:, 2]
    return area - 0.5 * pi * radius * radius + total


def _detect_columns(mesh: TriMesh, radius: float, eps: float) -> HoleReports:
    """``detect_holes`` over the mesh's columns.

    The validity predicate, the case formula, the clamp and the labels run
    on every cell at once; the cells the predicate sends to the exact
    fallback go through ``hole_area`` one by one.
    """
    live = np.flatnonzero(~mesh.degenerate)
    sides, area = mesh.sides[live], mesh.area[live]
    with np.errstate(all="ignore"):  # Python's float arithmetic does not warn
        case = _case_route(mesh.xy[live], sides, area, radius)
        value = np.zeros(len(live))
        value[case] = _case_values(sides[case], area[case], radius)
        value = np.where(value < 0.0, 0.0, value)  # max(value, 0.0)
        value = np.where(area < value, area, value)  # min(value, area)
    exact = np.zeros(len(mesh.cells), dtype=bool)
    exact_cells = live[~case]
    computations = [hole_area(geom, radius) for geom in mesh.geoms(exact_cells)]
    value[~case] = [comp.s_h for comp in computations]
    exact[exact_cells] = [comp.method == EXACT_FALLBACK for comp in computations]

    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    overlapping = np.count_nonzero(sides < two_r - tol, axis=1)
    tangent = np.count_nonzero(np.abs(sides - two_r) <= tol, axis=1)
    label = np.full(len(mesh.cells), CaseLabel.F.value)
    label[live] = np.where(value < eps, CaseLabel.F.value, _UNCOVERED_LABELS[overlapping, tangent])
    s_h = np.zeros(len(mesh.cells))
    s_h[live] = value
    order = np.argsort(-s_h, kind="stable")  # ties keep ascending cell ids
    return HoleReports(
        cell_id=order,
        label=label[order],
        method=np.where(exact[order], EXACT_FALLBACK, CASE_FORMULA),
        is_hole=s_h[order] > eps,
        hole_area=s_h[order],
    )


def detect_holes(mesh: TriMesh, radius: float, epsilon: float | None = None) -> HoleReports:
    """Evaluate every mesh cell under vertex disks of ``radius`` and report holes, largest first.

    Reports are sorted by descending hole area, ties by ascending cell id.
    ``epsilon`` (finite, >= 0) overrides the default significance threshold
    ``1e-9 * R^2``. A degenerate cell is reported as label ``F`` with
    ``s_h = 0``, not a hole, without a hole-area evaluation: it is a sliver
    such as Qhull keeps on the hull, of area below the degeneracy bound
    ``1e-12 * (longest side)^2``, on which the exact integral is not
    meaningful; its ``s_h`` is a closed-form value, hence ``case-formula``.
    """
    _require_radius(radius)
    eps = hole_epsilon(radius) if epsilon is None else epsilon
    if not (isfinite(eps) and eps >= 0.0):
        raise InvalidInputError(f"hole epsilon must be finite and >= 0, got {eps}")
    return _detect_columns(mesh, radius, eps)
