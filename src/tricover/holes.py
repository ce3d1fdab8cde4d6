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
cell's route; there is no override.

:func:`detect_holes` evaluates the predicate, the case formula and the
labels on every cell of a mesh at once, over its columns; only the cells
the predicate sends to the exact fallback go through :func:`hole_area`,
the exact route, one by one, as plain floats from the same columns. The
scalar predicate and case formula, and the general n-disk integral the
exact route specialises, live on as the tests' references in
``tests/oracles.py``, which this module matches bit for bit.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import acos, atan2, cos, hypot, isfinite, pi, sin, sqrt

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .field import check_length
from .files import CASE_FORMULA, EXACT_FALLBACK
from .geometry import _DEGENERACY_FACTOR
from .mesh import TriMesh, _hypot

# |d - 2R| <= _TANGENCY_FACTOR * R counts as a tangent (zero-lens) pair.
_TANGENCY_FACTOR = 1e-9
# Default hole-significance threshold: s_h > 1e-9 * R^2.
_HOLE_EPSILON_FACTOR = 1e-9
# Slack for the validity predicate's containment comparisons.
_PREDICATE_SLACK = 1e-12

_TWO_PI = 2.0 * pi


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


# --- hole area --------------------------------------------------------------


def hole_area(xy: Sequence[float], radius: float) -> HoleComputation:
    """The exact route: the uncovered area of a mesh cell under disks of
    ``radius`` at its three vertices, by the exact boundary integral, in
    ``[0, area]``.

    ``xy`` is the cell's six vertex coordinates ``(x1, y1, x2, y2, x3, y3)``
    in mesh order, a row of ``mesh.xy`` flattened. The cell's area is taken
    from them by the float operations that give ``mesh.area``, so it is that
    value. A radius that is not a length (``field.check_length``), and a
    cell whose sides or area are not finite, are ``invalid-input``; a cell that
    ``triangulate`` marks degenerate, by its three side lengths and area, is
    ``degenerate-geometry``.

    :func:`detect_holes` calls it once per cell whose validity predicate
    fails, and on no other cell. It returns a :class:`HoleComputation`
    rather than a float because ``perfbench/tracer.py`` buckets each call by
    its ``method`` and ``perfbench/test_perfbench.py`` needs these calls; a
    tracer that reads detect's route column would retire both.
    """
    check_length("sensing radius", radius)
    return HoleComputation(s_h=_uncovered_area(xy, radius), method=EXACT_FALLBACK)


def _uncovered_area(xy: Sequence[float], R: float) -> float:
    """The area of a cell outside its three vertex disks of radius ``R``, by
    Green's theorem over the boundary of the covered part.

    The boundary consists of (a) the pieces of the triangle's edges inside a
    disk and (b) the arcs of each circle inside the triangle and outside the
    other two disks. Both are 1-D interval computations. Angle sets are
    sorted lists of ``(lo, hi)`` intervals on ``[0, 2*pi]``: an arc of length
    in ``(0, 2*pi)`` starting at ``lo`` is one interval, or two when it wraps
    past ``2*pi``, and two sets intersect piece by piece, keeping the pieces
    of positive length.

    This is ``triangle_disks_covered_area`` of ``tests/oracles.py`` on the
    three vertex disks, whose every value it computes by the same float
    operations in the same order; the tests hold the two to the same bits.
    It computes fewer values, because the disks sit on the vertices and share
    one radius:

    - Edge i runs from vertex i to vertex i + 1 of the counter-clockwise
      triangle. For the disk at its start, ``u - c = 0``, so ``B = 0`` and
      ``t1 < 0`` is clamped to 0; for the disk at its end, ``u - c = -d``
      exactly (negation is exact), so ``B = -A``, ``C = A - R^2`` and
      ``t2 = (A + sq)/A >= 1`` is clamped to 1.
    - The distance of two centers is the length of the edge between them
      (``hypot`` ignores sign), so ``w`` and ``acos(w)`` are taken once per
      edge for both its circles; ``w >= 0``, so no disk holds a whole
      circle, and ``D > 0``, so no two circles are identical. The direction
      from an edge's start to its end is the edge's own; the one back is
      taken from the coordinates, as negating a zero would flip ``atan2``.
    - The exposed arcs of a circle are its gaps (outside the other disks)
      cut by each line's arc in turn. Every piece of an intersection has the
      largest of its pieces' starts and the least of their ends, and lies in
      one piece of each set, so the order of the cuts does not change the
      pieces. A circle's gaps lie mostly outside its corner of the triangle,
      so it cuts them by the lines of the two edges at its center first, and
      stops when nothing is left.
    """
    two_pi = _TWO_PI
    x1, y1, x2, y2, x3, y3 = xy
    # The area as ``mesh._columns`` takes it; the vertices counter-clockwise,
    # and the place there of each vertex in mesh order, the order in which
    # the circles' arcs are summed.
    cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    area = 0.5 * abs(cross)
    if cross < 0.0:
        x2, y2, x3, y3 = x3, y3, x2, y2
        places = (0, 2, 1)
    else:
        places = (0, 1, 2)
    ring = ((x1, y1), (x2, y2), (x3, y3))
    edges = ((x1, y1, x2 - x1, y2 - y1), (x2, y2, x3 - x2, y3 - y2), (x3, y3, x1 - x3, y1 - y3))
    lengths = (hypot(x2 - x1, y2 - y1), hypot(x3 - x2, y3 - y2), hypot(x1 - x3, y1 - y3))
    if not isfinite(lengths[0] + lengths[1] + lengths[2] + area):
        raise InvalidInputError(f"cell sides and area must be finite, got {list(xy)}")
    longest = max(lengths)
    if longest <= 0.0 or area < _DEGENERACY_FACTOR * longest * longest:
        raise DegenerateGeometryError("triangle is degenerate")
    rr = R * R
    total = 0.0

    lines, covers = [], []
    for i, (ux, uy, dx, dy) in enumerate(edges):
        # (a) The edge's pieces inside the union of the disks: spans of the
        # edge parameter t in [0, 1], merged where they overlap or touch.
        A = dx * dx + dy * dy
        spans = []
        disc = A * rr  # the disk at the start
        if disc > 0.0:
            t2 = sqrt(disc) / A
            if t2 > 1.0:
                t2 = 1.0
            if t2 > 0.0:
                spans.append((0.0, t2))
        disc = A * A - A * (A - rr)  # the disk at the end
        if disc > 0.0:
            t1 = (A - sqrt(disc)) / A
            if t1 < 0.0:
                t1 = 0.0
            if t1 < 1.0:
                spans.append((t1, 1.0))
        cx, cy = ring[i - 1]  # the disk at the opposite vertex
        wx, wy = ux - cx, uy - cy
        B = wx * dx + wy * dy
        disc = B * B - A * (wx * wx + wy * wy - rr)
        if disc > 0.0:
            sq = sqrt(disc)
            t1 = (-B - sq) / A
            if t1 < 0.0:
                t1 = 0.0
            t2 = (-B + sq) / A
            if t2 > 1.0:
                t2 = 1.0
            if t2 > t1:
                spans.append((t1, t2))
        spans.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            px, py = ux + lo * dx, uy + lo * dy
            qx, qy = ux + hi * dx, uy + hi * dy
            total += 0.5 * (px * qy - py * qx)

        # The edge's line, as its outward unit normal (right of travel), the
        # normal's angle and the line's offset; and where the disk at each
        # end of the edge covers the other's circle: an arc of angle 2*beta
        # starting at ``ahead`` (the start's circle) or ``behind`` (the end's),
        # or nothing when beta is None.
        D = lengths[i]
        nx, ny = dy / D, -dx / D
        w = (D * D + rr - rr) / (2.0 * R * D)
        if w < 1.0:
            beta = acos(w)
            vx, vy = ring[i - 2]  # the end
            ahead = (atan2(dy, dx) - beta) % two_pi
            behind = (atan2(uy - vy, ux - vx) - beta) % two_pi
        else:
            beta = ahead = behind = None
        lines.append((nx, ny, atan2(ny, nx), nx * ux + ny * uy))
        covers.append((beta, ahead, behind))

    # (b) Each circle's arcs inside the triangle and outside the other disks.
    for r in places:
        cx, cy = ring[r]
        # The gaps between the arcs the other two disks cover.
        beta1, ahead, _ = covers[r]
        beta2, _, behind = covers[r - 1]
        covered = []
        for beta, lo in ((beta1, ahead), (beta2, behind)):
            if beta is None:
                continue
            hi = lo + 2.0 * beta
            if hi <= two_pi:
                covered.append((lo, hi))
            else:
                covered += ((0.0, hi - two_pi), (lo, two_pi))
        covered.sort()
        exposed = []
        end = 0.0
        for lo, hi in covered:
            if lo > end:
                exposed.append((end, lo))
            if hi > end:
                end = hi
        if end < two_pi:
            exposed.append((end, two_pi))

        # Of those, the angles inside the triangle: in each edge's inner
        # half-plane, the angles theta with cos(theta - phi) <= s.
        for nx, ny, phi, off in (lines[r], lines[r - 1], lines[r - 2]):
            if not exposed:
                break
            s = (off - (nx * cx + ny * cy)) / R
            if s >= 1.0:
                continue  # the whole circle: the set is unchanged
            if s <= -1.0:
                exposed = []
                break
            alpha = acos(s)  # in (0, pi): the arc's length lies in (0, 2*pi)
            lo = (phi + alpha) % two_pi
            hi = lo + (two_pi - 2.0 * alpha)
            arc = [(lo, hi)] if hi <= two_pi else [(0.0, hi - two_pi), (lo, two_pi)]
            cut = []
            for a0, a1 in exposed:
                for b0, b1 in arc:
                    lo = b0 if b0 > a0 else a0
                    hi = b1 if b1 < a1 else a1
                    if hi > lo:
                        cut.append((lo, hi))
            exposed = cut
        exposed.sort()
        for th1, th2 in exposed:
            total += 0.5 * (
                R * cx * (sin(th2) - sin(th1)) - R * cy * (cos(th2) - cos(th1)) + rr * (th2 - th1)
            )

    return area - min(max(total, 0.0), area)


# --- the detect kernel --------------------------------------------------------
#
# Every cell at once, over the mesh's columns. The route and the case formula
# are the tests' scalar ``case_formula_validity``, ``case_value`` and
# ``lens_area`` (``tests/oracles.py``), operation for operation, and match
# them bit for bit: ``hypot`` and ``acos`` are ``math``'s, taken over lists,
# since ``np.hypot`` and ``np.arccos`` round some inputs differently
# (``np.sqrt`` is correctly rounded, as ``math.sqrt`` is).

# The case label of a cell that is not covered, as ``files.CASE_LABELS``
# defines it, by the cell's counts of overlapping (row) and tangent
# (column) sides.
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
    """The validity predicate of each cell: its vertex sectors lie inside
    it, and its three disks share no point inside it.

    Sector containment holds when ``R`` is at most the shortest side and
    each vertex's distance to the opposite side segment; the triple overlap
    is empty when ``R`` is at most the radius of the smallest circle about
    the three vertices (half the longest side if the triangle is right or
    obtuse, else the circumradius). Each comparison allows ``1e-12 * R``.

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
    a, b, c = sides[:, 0], sides[:, 1], sides[:, 2]
    slack = _PREDICATE_SLACK * radius
    holds = ~(radius > np.minimum(np.minimum(a, b), c) + slack)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # the distance from vertex i to segment j-k; t = 0 where the segment
        # is a point, which gives hypot(wx, wy)
        v, w = xy[:, k] - xy[:, j], xy[:, i] - xy[:, j]
        vx, vy, wx, wy = v[:, 0], v[:, 1], w[:, 0], w[:, 1]
        seg2 = vx * vx + vy * vy
        t = np.where(seg2 == 0.0, 0.0, (wx * vx + wy * vy) / seg2)
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        holds &= ~(radius > _hypot(wx - t * vx, wy - t * vy) + slack)
    # the radius of the smallest circle about the three vertices
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
    rows = mesh.xy[exact_cells].reshape(-1, 6).tolist()
    value[~case] = [hole_area(xy, radius).s_h for xy in rows]
    exact[exact_cells] = True

    tol = _TANGENCY_FACTOR * radius
    two_r = 2.0 * radius
    overlapping = np.count_nonzero(sides < two_r - tol, axis=1)
    tangent = np.count_nonzero(np.abs(sides - two_r) <= tol, axis=1)
    label = np.full(len(mesh.cells), "F")
    label[live] = np.where(value < eps, "F", _UNCOVERED_LABELS[overlapping, tangent])
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
    ``radius`` must be a length (``field.check_length``), else
    ``invalid-input``. ``epsilon`` (finite, >= 0) overrides the default significance threshold
    ``1e-9 * R^2``. A degenerate cell is reported as label ``F`` with
    ``s_h = 0``, not a hole, without a hole-area evaluation: it is a sliver
    such as Qhull keeps on the hull, of area below the degeneracy bound
    ``1e-12 * (longest side)^2``, on which the exact integral is not
    meaningful; its ``s_h`` is a closed-form value, hence ``case-formula``.
    """
    check_length("sensing radius", radius)
    eps = hole_epsilon(radius) if epsilon is None else epsilon
    if not (isfinite(eps) and eps >= 0.0):
        raise InvalidInputError(f"hole epsilon must be finite and >= 0, got {eps}")
    return _detect_columns(mesh, radius, eps)
