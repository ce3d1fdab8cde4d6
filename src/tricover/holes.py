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
labels on every cell of a mesh at once, over its columns; the cells the
predicate sends to the exact fallback go through :func:`hole_area`, the
exact route, in one call, as rows of the same columns, in blocks of a fixed
number of rows. The scalar predicate and case formula, and the general
n-disk integral the exact route specialises, live on as the tests'
references in ``tests/oracles.py``, which this module matches bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import acos, atan2, cos, hypot, isfinite, pi, sin

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .field import LENGTH_RANGE, check_length
from .files import CASE_FORMULA, EXACT_FALLBACK
from .geometry import _DEGENERACY_FACTOR, _mapped
from .mesh import TriMesh

# |d - 2R| <= _TANGENCY_FACTOR * R counts as a tangent (zero-lens) pair.
_TANGENCY_FACTOR = 1e-9
# Default hole-significance threshold: s_h > 1e-9 * R^2.
_HOLE_EPSILON_FACTOR = 1e-9
# Slack for the validity predicate's containment comparisons.
_PREDICATE_SLACK = 1e-12

_TWO_PI = 2.0 * pi


@dataclass(frozen=True)
class HoleComputation:
    """Hole areas of a batch of cells; ``method`` records which route produced ``s_h``."""

    s_h: np.ndarray
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


def hole_area(xy: np.ndarray, radius: float | np.ndarray) -> HoleComputation:
    """The exact route: the uncovered area of each cell of the ``(N, 6)``
    mesh rows ``xy`` under disks of its radius at its three vertices, by the
    exact boundary integral, in ``[0, area]``, as an ``(N,)`` column.

    A row is a cell's six vertex coordinates ``(x1, y1, x2, y2, x3, y3)`` in
    mesh order, a row of ``mesh.xy`` flattened; ``radius`` is one length or
    one per row. Each cell's area is taken from its row by the float
    operations that give ``mesh.area``, so it is that value. A radius that is
    not a length (``field.check_length``), and a cell whose sides or area are
    not finite, are ``invalid-input``; a cell that ``triangulate`` marks
    degenerate, by its three side lengths and area, is
    ``degenerate-geometry``. The error names the first such radius or row.

    :func:`detect_holes` calls it once, on its exact-route cells in cell
    order. It returns a :class:`HoleComputation` because
    ``perfbench/tracer.py`` buckets each call by its ``method`` and
    ``perfbench/test_perfbench.py`` needs these calls.
    """
    radii = np.asarray(radius, dtype=float)
    if not ((radii >= LENGTH_RANGE[0]) & (radii <= LENGTH_RANGE[1])).all():
        for value in radii.ravel().tolist():
            check_length("sensing radius", value)
    rows = np.asarray(xy, dtype=float).reshape(-1, 6)
    radii = np.broadcast_to(radii, len(rows))
    s_h = np.zeros(len(rows))
    with np.errstate(all="ignore"):  # Python's float arithmetic does not warn
        for i in range(0, len(rows), _BLOCK):
            s_h[i : i + _BLOCK] = _uncovered_area(rows[i : i + _BLOCK], radii[i : i + _BLOCK])
    return HoleComputation(s_h=s_h, method=EXACT_FALLBACK)


# Rows per pass of the exact route's kernel: enough to spread numpy's cost
# per call, few enough that detect does not set the process's peak memory.
_BLOCK = 512
# The empty piece of a set of ``(lo, hi)`` pieces: it sorts after every
# piece, and its intersection with any piece is empty.
_EMPTY = (np.inf, -np.inf)


def _ordered(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Two columns of ``(lo, hi)`` pieces, compare-swapped into tuple order."""
    swap = (a[0] > b[0]) | ((a[0] == b[0]) & (a[1] > b[1]))
    first = tuple(np.where(swap, q, p) for p, q in zip(a, b))
    return first, tuple(np.where(swap, p, q) for p, q in zip(a, b))


def _pieces(keep: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The piece ``(lo, hi)`` where ``keep`` holds, else the empty piece."""
    return np.where(keep, lo, _EMPTY[0]), np.where(keep, hi, _EMPTY[1])


def _arc(keep: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[tuple]:
    """The arc from ``lo`` to ``hi < lo + 2*pi`` as two pieces on
    ``[0, 2*pi]``: the arc and an empty piece, or its two parts if it wraps."""
    wraps = hi > _TWO_PI
    first = _pieces(keep, np.where(wraps, 0.0, lo), np.where(wraps, hi - _TWO_PI, hi))
    return [first, _pieces(keep & wraps, lo, _TWO_PI)]


def _compact(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, k)`` pieces of positive length in ascending order, in as
    many columns as the fullest row needs."""
    lo, hi = _pieces(hi > lo, lo, hi)
    order = np.argsort(lo, axis=1)[:, : max(1, np.count_nonzero(lo < np.inf, axis=1).max(initial=0))]
    rows = np.arange(len(lo))[:, None]
    return lo[rows, order], hi[rows, order]


def _uncovered_area(xy: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The area of each cell of the rows ``xy`` outside its three vertex
    disks of radius ``R``, by Green's theorem over the boundary of the
    covered part: (a) the pieces of the triangle's edges inside a disk and
    (b) the arcs of each circle inside the triangle and outside the other
    two disks. Both are 1-D interval computations, on sets of ``(lo, hi)``
    pieces held as a few padded columns, an empty piece in each unused one.
    An arc of length in ``(0, 2*pi)`` starting at ``lo`` is one piece of
    ``[0, 2*pi]``, or two when it wraps past ``2*pi``, and two sets
    intersect piece by piece, keeping the pieces of positive length.

    This is ``triangle_disks_covered_area`` of ``tests/oracles.py`` on each
    row's three vertex disks. It computes every value it keeps by the same
    float operations and adds the pieces to each row's total in the same
    order, so the tests hold the two to the same bits: ``hypot``, ``atan2``,
    ``acos``, ``sin`` and ``cos`` are ``math``'s, mapped over columns, and
    numpy's ``%`` on floats is Python's. An empty piece adds +0.0 to a total
    that is never -0.0, which leaves it unchanged. It computes fewer values,
    because the disks sit on the vertices and share one radius:

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
      largest of its pieces' starts and the least of their ends, so the order
      of the cuts does not change the pieces. A circle cuts its gaps by the
      lines of the two edges at its center first; a row with no piece left
      drops out of later cuts.
    - The at most three spans of an edge and four covered pieces of a circle
      are sorted by compare-swap networks, as the oracle sorts its lists.
    """
    n = len(xy)
    x1, y1, x2, y2, x3, y3 = xy.T
    # The area as ``mesh._columns`` takes it; the vertices counter-clockwise.
    cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    area = 0.5 * np.abs(cross)
    flip = cross < 0.0
    # The three edges, and the three circles, as one column of 3n rows:
    # block i holds edge i, from vertex i (u) to vertex i + 1 of the
    # counter-clockwise ring, and the circle about u.
    ux = np.concatenate([x1, np.where(flip, x3, x2), np.where(flip, x2, x3)])
    uy = np.concatenate([y1, np.where(flip, y3, y2), np.where(flip, y2, y3)])
    after = np.arange(3 * n) - 2 * n  # the row of the next block; a negative index wraps
    dx, dy = ux[after] - ux, uy[after] - uy
    D = _mapped(hypot, dx, dy)
    sides = D.reshape(3, n)
    finite = np.isfinite(sides[0] + sides[1] + sides[2] + area)
    longest = np.maximum(np.maximum(sides[0], sides[1]), sides[2])
    bad = ~finite | (longest <= 0.0) | (area < _DEGENERACY_FACTOR * longest * longest)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        if not finite[first]:
            raise InvalidInputError(f"cell sides and area must be finite, got {xy[first].tolist()}")
        raise DegenerateGeometryError("triangle is degenerate")
    R = np.tile(R, 3)
    spans = _span_terms(ux, uy, dx, dy, R).reshape(3, n, -1)
    arcs = _arc_terms(ux, uy, dx, dy, D, R).reshape(3, n, -1)
    # Each edge's pieces, then each circle's, the circles in mesh order.
    second, third = np.where(flip[:, None], arcs[2], arcs[1]), np.where(flip[:, None], arcs[1], arcs[2])
    total = np.zeros(n)
    for column in np.hstack([*spans, arcs[0], second, third]).T:
        total = total + column
    total = np.where(0.0 > total, 0.0, total)  # max(total, 0.0)
    return area - np.where(area < total, area, total)  # min(total, area)


def _span_terms(ux: np.ndarray, uy: np.ndarray, dx: np.ndarray, dy: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(a) The terms of each edge's pieces inside the union of the disks,
    in ascending order: spans of the edge parameter t in [0, 1], merged
    where they overlap or touch."""

    def term(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        px, py, qx, qy = ux + lo * dx, uy + lo * dy, ux + hi * dx, uy + hi * dy
        return 0.5 * (px * qy - py * qx)

    before = np.arange(len(ux)) - len(ux) // 3  # the row of the previous block
    rr = R * R
    A = dx * dx + dy * dy
    disc = A * rr  # the disk at the start
    t2 = np.sqrt(disc) / A
    t2 = np.where(t2 > 1.0, 1.0, t2)
    start = _pieces((disc > 0.0) & (t2 > 0.0), 0.0, t2)
    disc = A * A - A * (A - rr)  # the disk at the end
    t1 = (A - np.sqrt(disc)) / A
    t1 = np.where(t1 < 0.0, 0.0, t1)
    end = _pieces((disc > 0.0) & (t1 < 1.0), t1, 1.0)
    wx, wy = ux - ux[before], uy - uy[before]  # the disk at the third vertex
    B = wx * dx + wy * dy
    disc = B * B - A * (wx * wx + wy * wy - rr)
    t1, t2 = (-B - np.sqrt(disc)) / A, (-B + np.sqrt(disc)) / A
    t1, t2 = np.where(t1 < 0.0, 0.0, t1), np.where(t2 > 1.0, 1.0, t2)
    first, second = _ordered(start, end)
    second, last = _ordered(second, _pieces((disc > 0.0) & (t2 > t1), t1, t2))
    (lo, hi), second = _ordered(first, second)
    terms = []
    for nlo, nhi in (second, last):  # the non-empty pieces come first
        joins = (nlo < np.inf) & (nlo <= hi)
        emits = (nlo < np.inf) & ~joins
        terms.append(np.where(emits, term(lo, hi), 0.0))
        hi = np.where(joins & (nhi > hi), nhi, hi)
        lo, hi = np.where(emits, nlo, lo), np.where(emits, nhi, hi)
    terms.append(np.where(lo < np.inf, term(lo, hi), 0.0))
    return np.stack(terms, axis=1)


def _arc_terms(
    ux: np.ndarray, uy: np.ndarray, dx: np.ndarray, dy: np.ndarray, D: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """(b) The terms of each circle's arcs inside the triangle and outside
    the other disks, in ascending order."""
    n, rr = len(ux) // 3, R * R
    before, after = np.arange(3 * n) - n, np.arange(3 * n) - 2 * n
    # Each edge's line, as its outward unit normal (right of travel), the
    # normal's angle and the line's offset; and where ``overlap`` holds, the
    # arc of angle 2*beta that the disk at each end of the edge covers of the
    # other's circle, from ``ahead`` (the start's circle) or ``behind``.
    nx, ny = dy / D, -dx / D
    phi, offset = _mapped(atan2, ny, nx), nx * ux + ny * uy
    w = (D * D + rr - rr) / (2.0 * R * D)
    overlap = w < 1.0
    beta, ahead, behind = np.zeros((3, 3 * n))
    beta[overlap] = _mapped(acos, w[overlap])
    ahead[overlap] = (_mapped(atan2, dy[overlap], dx[overlap]) - beta[overlap]) % _TWO_PI
    back = _mapped(atan2, (uy - uy[after])[overlap], (ux - ux[after])[overlap])
    behind[overlap] = (back - beta[overlap]) % _TWO_PI

    # The gaps between the arcs covered by the disks at the ends of edge i
    # and of edge i - 1, a block back.
    p = _arc(overlap, ahead, ahead + 2.0 * beta)
    p += _arc(*(col[before] for col in (overlap, behind, behind + 2.0 * beta)))
    for j, k in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        p[j], p[k] = _ordered(p[j], p[k])
    gaps, end = [], np.zeros(3 * n)
    for lo, hi in p:
        gaps.append(_pieces((lo < np.inf) & (lo > end), end, lo))
        end = np.where(hi > end, hi, end)
    gaps.append(_pieces(end < _TWO_PI, end, _TWO_PI))
    lo, hi = _compact(*(np.stack(col, axis=1) for col in zip(*gaps)))

    # Of those, the angles inside the triangle: in each edge's inner
    # half-plane, those with cos(theta - phi) <= s; the lines of edges i,
    # i - 1 and i - 2, a block back each time.
    rows = np.arange(3 * n)
    for shift in (0, n, 2 * n):
        live = lo[:, 0] < np.inf
        rows, lo, hi = rows[live], lo[live], hi[live]
        line = (rows - shift) % (3 * n)
        s = (offset[line] - (nx[line] * ux[rows] + ny[line] * uy[rows])) / R[rows]
        cuts, whole = (s < 1.0) & (s > -1.0), s >= 1.0  # s <= -1 empties the set
        alpha = np.zeros(len(rows))
        alpha[cuts] = _mapped(acos, s[cuts])  # in (0, pi): the arc's length lies in (0, 2*pi)
        start = np.where(whole, 0.0, (phi[line] + alpha) % _TWO_PI)  # the whole circle: [0, 2*pi]
        arc = _arc(cuts | whole, start, start + (_TWO_PI - 2.0 * alpha))
        cut_lo = np.hstack([np.where(b0[:, None] > lo, b0[:, None], lo) for b0, _ in arc])
        cut_hi = np.hstack([np.where(b1[:, None] < hi, b1[:, None], hi) for _, b1 in arc])
        lo, hi = _compact(cut_lo, cut_hi)

    i, j = np.nonzero(lo < np.inf)
    th1, th2, rows = lo[i, j], hi[i, j], rows[i]
    R, cx, cy = R[rows], ux[rows], uy[rows]
    terms = np.zeros((3 * n, lo.shape[1]))
    terms[rows, j] = 0.5 * (
        R * cx * (_mapped(sin, th2) - _mapped(sin, th1))
        - R * cy * (_mapped(cos, th2) - _mapped(cos, th1))
        + R * R * (th2 - th1)
    )
    return terms


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
        return rr * _mapped(acos, ratio) - h * np.sqrt(radicand)

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
        holds &= ~(radius > _mapped(hypot, wx - t * vx, wy - t * vy) + slack)
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
    fallback go through one ``hole_area`` call, in cell order.
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
    value[~case] = hole_area(mesh.xy[exact_cells].reshape(-1, 6), radius).s_h
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
