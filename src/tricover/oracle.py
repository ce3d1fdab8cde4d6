"""Verify's Monte-Carlo coverage estimator.

``mc_coverage_fraction`` measures how much of a field its sensors cover,
before and after a plan moves some mobiles, on seeded uniform samples.
Coverage is decided by plain distance comparisons: a raster of the
stationary disks settles most samples, and a kd-tree query the rest. The
samples the stationary sensors leave uncovered are then ordered by raster
column, and each mobile disk is tested only on the run of columns it can
reach. The estimator shares no code with the closed-form geometry of
``detect``, so it also serves the tests as an independent check of the
hole areas.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter, sqrt
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InconsistentInputError, InvalidInputError
from .field import SensorField
from .geometry import Point

# Two-sided 99% normal quantile for binomial confidence half-widths.
_Z99 = 2.5758293035489004

# Monte-Carlo samples are drawn and tested this many at a time, which bounds
# memory whatever the sample count. Successive draws from one generator
# concatenate bit for bit to a single draw, so the chunk size changes no
# result.
MC_CHUNK = 1 << 16

# States of a stationary-coverage raster cell (see ``_stamp``).
_UNCOVERED, _COVERED, _MIXED = 0, 1, 2

# Half the diagonal of a unit cell, widened by 1e-9.
_HALF_DIAGONAL = sqrt(0.5) * (1.0 + 1e-9)

# A raster visits at most _STAMP_PAIRS (site, cell) pairs (see
# ``_raster_layout``), about _STAMP_BLOCK at a time, which bounds memory.
_STAMP_PAIRS = 8 * MC_CHUNK
_STAMP_BLOCK = 8192


@dataclass(frozen=True)
class CoverageEstimate:
    """Monte-Carlo coverage of a field before and after moving some mobiles.

    The fields are the keys of a report's ``verify`` section.
    """

    before: float
    after: float
    samples: int
    seed: int
    half_width: float


@dataclass(frozen=True)
class _Raster:
    """Square cells of side ``h``, ``nx`` by ``ny``, from the origin.

    ``state[j * nx + i]`` is the state of the cell
    ``[i * h, (i + 1) * h] x [j * h, (j + 1) * h]``; a layout alone has
    ``state`` None.
    """

    h: float
    nx: int
    ny: int
    state: np.ndarray | None


def _layout(cells: int, width: float, height: float) -> _Raster:
    """About ``cells`` square cells over ``[0, width] x [0, height]``, without states.

    ``nx`` columns near ``sqrt(cells * width / height)``, ``ny = cells // nx``
    rows, and side ``h = max(width / nx, height / ny)``.
    """
    nx = int(min(cells, max(1.0, sqrt(cells * (width / height)))))
    ny = cells // nx
    return _Raster(max(width / nx, height / ny), nx, ny, None)


def _reach(radius: float, h: float) -> float:
    """How far from a site a cell centre can be and the site still reach the cell."""
    return radius * (1.0 + 1e-9) + h * _HALF_DIAGONAL


def _pair_bound(raster: _Raster, sites: int, radius: float) -> int:
    """An upper bound on the (site, cell) pairs ``_stamp`` visits for ``sites`` sites of the field.

    A site's window spans fewer than ``2 * reach / h + 2`` columns, plus a
    rounding far below one cell while the site lies within ``2**40 * h`` of
    the origin, as every site of the field does: at most
    ``int(2 * reach / h + 3)`` columns, and as many rows.
    """
    span = 2.0 * _reach(radius, raster.h) / raster.h + 3.0
    return sites * int(min(raster.nx, span)) * int(min(raster.ny, span))


def _raster_layout(width: float, height: float, samples: int, sites: int, radius: float) -> _Raster:
    """The layout ``mc_coverage_fraction`` stamps: the most cells, and at least one, such that

    - there are at most ``MC_CHUNK`` cells, so column and cell keys fit in
      16 bits;
    - there is at most one cell per two samples;
    - the stamp visits at most ``max(sites, min(_STAMP_PAIRS, 2 * samples))``
      pairs (``_pair_bound``), so that an over-covered field, or a run of
      few samples, stamps no more than the raster saves. A pair costs a few
      float operations, about a twentieth of a kd query.

    The count is the cap if it fits, and otherwise the largest that a
    bisection finds below it; one cell always fits.
    """
    budget = max(sites, min(_STAMP_PAIRS, 2 * samples))

    def fits(cells: int) -> bool:
        return _pair_bound(_layout(cells, width, height), sites, radius) <= budget

    lo, hi = 1, max(1, min(MC_CHUNK, samples // 2))
    if fits(hi):
        return _layout(hi, width, height)
    # fits(lo) and not fits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return _layout(lo, width, height)


def _stamp(raster: _Raster, sites: np.ndarray, radius: float) -> _Raster:
    """Classify the cells of ``raster`` by the disks of radius ``radius`` about ``sites``.

    With ``R = radius``, ``δ = h * sqrt(1/2) * (1 + 1e-9)`` and the reach
    ``B = R * (1 + 1e-9) + δ``, each site s visits the cells of its window:
    the columns from ``_columns(s.x - B)`` to ``_columns(s.x + B)`` and the
    rows from ``_columns(s.y - B)`` to ``_columns(s.y + B)``, the map that
    places the samples, so the window is clipped to the raster. The windows'
    (site, cell) pairs are visited in blocks of about ``_STAMP_BLOCK``:
    sites in groups with that many window columns in all (or one site), and
    as many window rows of a group at a time as keep the block in that
    size (or one row). A pair has the distance
    ``d = sqrt(dx * dx + dy * dy)`` from s to the cell centre
    ``c = ((i + 0.5) * h, (j + 0.5) * h)``. A cell is *covered* if some
    pair has ``d + δ <= R * (1 - 1e-9)``, *uncovered* if no pair has
    ``d - δ < R * (1 + 1e-9)``, and *mixed* otherwise. A pair left out of
    the windows has its cell centre more than B plus nearly half a cell
    from the site along x or y, so it would meet neither test: the windows
    change no state, and the tests check the states against every site.

    A point ``p`` of the field in a covered (uncovered) cell, as
    ``_stationary_covered`` assigns it, passes (fails) the plain test
    ``tree.query(p, distance_upper_bound=nextafter(R, inf))[0] <= R`` of a
    kd-tree of the sites. With u = 2**-53 the unit roundoff, the field's
    sides and R in [2**-400, 2**400] (no square below overflows, and one
    that underflows moves a distance by at most 2**-537, far below
    1e-11 * h), and the sites within ``2**40 * h`` of the origin (a site of
    the field lies within ``2**16.01 * h``):

    - A distance computed by numpy here or by scipy in the query (the root
      of a rounded sum of rounded squares of rounded differences) is within
      a relative 3.01u of the true one. The kd search returns the least
      computed distance below its bound; as it prunes on rounded rectangle
      distances, it can miss only a site whose computed distance is within
      a relative 1e-12 of the bound.
    - ``_columns`` puts p in column ``min(floor(x * (1/h)), nx - 1)``.
      ``x * (1/h)`` is within a relative 2.01u of x / h, and
      x <= width <= nx * h * (1 + 1.01u), so x lies in the column widened by
      2.02u * nx * h <= 2.02 * 2**-37 * h on each side (nx <= 2**16): a
      point can land one cell off by a few ulps. The computed centre
      ``(i + 0.5) * h`` is within u * nx * h <= 2**-37 * h of the true one.
      So |x - cx| <= h/2 * (1 + 4.4e-11), likewise for y, and
      |p - c| <= h/sqrt(2) * (1 + 4.4e-11). The computed δ is at least
      h/sqrt(2) * (1 + 1e-9) * (1 - 4u), so |p - c| <= δ - 9.5e-10 * h/sqrt(2).
    - Covered: some site s has computed distance d from c, so
      |c - s| <= d * (1 + 3.01u) and |p - s| <= (d + δ) * (1 + 3.01u)
      <= R * (1 - 1e-9) * (1 + u)**2 * (1 + 3.01u) < R * (1 - 1e-9 + 5.1u).
      p's computed distance to s is below R * (1 - 1e-9 + 8.2u), far below
      R and the bound, so the plain query finds a distance <= R.
    - Uncovered, a site s whose window holds the cell: let R' be the
      rounded ``R * (1 + 1e-9)``. The rounded ``d - δ`` is at least R', so
      d - δ >= R' * (1 - u), and
      |p - s| >= |c - s| - |p - c| >= d * (1 - 3.01u) - δ + 9.5e-10 * h/sqrt(2)
      >= R' * (1 - 4.02u) + h/sqrt(2) * (9.5e-10 - 3.1u) > R * (1 + 9.9e-10),
      the middle expression being least at the least d.
    - Uncovered, a site s whose window misses the cell, say p's column
      lies after the window's: the column map never decreases as x grows
      and places p and ``e = fl(s.x + B)`` through the same product, so
      x > e. Then x - s.x > B - u * (|s.x| + B) >= (R' + δ) * (1 - 3u)
      - 2**-13 * h > R * (1 + 9.9e-10); the other three sides are alike.
    - In both uncovered cases p's computed distance to s exceeds
      R * (1 + 9.8e-10), so the plain query finds no site within
      ``nextafter(R, inf)``.

    The margin on R absorbs the rounding in terms of R's size; the widening
    of δ absorbs the cell-index rounding, which scales with h and matters on
    the uncovered side when R is far below h.
    """
    h, nx, ny = raster.h, raster.nx, raster.ny
    inv_h = 1.0 / h
    delta = h * _HALF_DIAGONAL
    reach = _reach(radius, h)
    sx, sy = sites[:, 0], sites[:, 1]
    x0 = _columns(sx - reach, inv_h, nx).astype(np.intp)
    y0 = _columns(sy - reach, inv_h, ny).astype(np.intp)
    w = _columns(sx + reach, inv_h, nx) - x0 + 1
    rows = _columns(sy + reach, inv_h, ny) - y0 + 1
    ends = np.cumsum(w)
    starts = ends - w
    cx = (np.arange(nx) + 0.5) * h
    cy = (np.arange(ny) + 0.5) * h
    covered = np.zeros(nx * ny, dtype=bool)
    reached = np.zeros(nx * ny, dtype=bool)
    a = 0
    while a < len(sites):
        # sites a to b - 1: at most _STAMP_BLOCK window columns in all, or one site
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _STAMP_BLOCK, side="right")))
        # one entry per (site, window column); k is the site's index in the group
        k = np.repeat(np.arange(b - a), w[a:b])
        col = np.arange(len(k)) - (starts[a:b] - starts[a]).take(k) + x0[a:b].take(k)
        dx = cx.take(col) - sx[a:b].take(k)
        dx2 = dx * dx
        base = y0[a:b].take(k) * nx + col
        height = rows[a:b].take(k)
        top = int(rows[a:b].max())
        step = max(1, _STAMP_BLOCK // len(k))
        for t in range(0, top, step):
            # rows t to t + step - 1 of each site's window, one per line of d
            dt = np.arange(t, min(t + step, top))[:, np.newaxis]
            dy = cy.take(y0[a:b] + dt, mode="clip") - sy[a:b]
            d = np.sqrt(dx2 + (dy * dy).take(k, axis=1))
            live = dt < height
            cell = base + dt * nx
            covered[cell[live & (d + delta <= radius * (1.0 - 1e-9))]] = True
            reached[cell[live & (d - delta < radius * (1.0 + 1e-9))]] = True
        a = b
    state = np.where(reached, _MIXED, _UNCOVERED).astype(np.int8)
    state[covered] = _COVERED
    return _Raster(h, nx, ny, state)


def _columns(x: np.ndarray, inv_h: float, n: int) -> np.ndarray:
    """Raster column of each abscissa in ``x`` (or row of each ordinate), as uint16.

    The map ``trunc(clip(x * inv_h, 0, n - 1))`` never decreases as x
    grows: the rounded product is monotone in x, and so are the clip and
    the truncation. For x >= 0 it is ``min(floor(x * inv_h), n - 1)``.
    Clipping in float before the cast keeps huge and infinite x in range,
    and ``n <= MC_CHUNK = 2**16`` makes every column fit in 16 bits.
    """
    return np.clip(x * inv_h, 0.0, n - 1).astype(np.uint16)


def _stationary_covered(
    pts: np.ndarray, col: np.ndarray, tree: cKDTree, raster: _Raster, radius: float
) -> np.ndarray:
    """Which of ``pts`` (points of the raster's field) lie within ``radius`` of a sensor of ``tree``.

    ``col`` holds the points' raster columns (``_columns``). A point in a
    covered or uncovered cell of ``raster`` takes the cell's state, which is
    the plain query's answer (see ``_stamp``); the points in mixed
    cells are queried, in cell order, so that successive queries search
    nearby parts of the tree. Each answer is the point's own, whatever the
    order.
    """
    row = _columns(pts[:, 1], 1.0 / raster.h, raster.ny).astype(np.intp)
    cell = row * raster.nx + col
    state = raster.state.take(cell)
    covered = state == _COVERED
    mixed = np.flatnonzero(state == _MIXED)
    if len(mixed):
        # cell < MC_CHUNK = 2**16: a stable sort of 16-bit keys is a radix sort.
        mixed = mixed.take(np.argsort(cell.take(mixed).astype(np.uint16), kind="stable"))
        # cKDTree's bound is strict; the next float up keeps points at exactly R.
        dist, _ = tree.query(
            pts.take(mixed, axis=0), distance_upper_bound=nextafter(radius, inf)
        )
        covered[mixed] = dist <= radius
    return covered


@dataclass(frozen=True)
class _DiskRuns:
    """Disks ``(cx, cy, r * r)``; disk k is tested on columns ``lo[k]`` to ``hi[k]``."""

    disks: list[tuple[float, float, float]]
    lo: np.ndarray
    hi: np.ndarray


def _disk_runs(disks: Sequence[tuple[Point, float]], h: float, nx: int) -> _DiskRuns:
    """The run of raster columns (side ``h``, ``nx`` of them) each disk is tested on.

    A disk of centre (cx, cy) and radius r runs from the column of
    ``cx - reach`` to that of ``cx + reach``, with the stamp's reach
    ``reach = _reach(r, h)``. A point outside the run fails the test
    ``dx * dx + dy * dy <= r * r`` in floating point too, so testing the
    run alone gives the mask of a test of every point. The centres lie in
    the field, so ``_stamp``'s "window misses" bullet holds with R = r: a
    point outside the run has |x - cx| > r * (1 + 9.9e-10). With u = 2**-53
    the unit roundoff:

    - ``dx = x - cx`` rounds with relative error at most u, so
      |dx| > r * (1 + 9.8e-10).
    - r lies in ``LENGTH_RANGE``, so ``r * r`` and ``dx * dx`` are normal
      floats, each rounded with relative error at most u.
    - ``dy * dy >= 0`` and rounding is monotone, so the computed sum is at
      least ``dx * dx >= r**2 * (1 + 1.9e-9) * (1 - u) > r**2 * (1 + u) >= r * r``.
    """
    table = np.array([(c[0], c[1], r) for c, r in disks], dtype=float).reshape(-1, 3)
    cx, r = table[:, 0], table[:, 2]
    reach = _reach(r, h)
    inv_h = 1.0 / h
    return _DiskRuns(
        disks=list(zip(cx.tolist(), table[:, 1].tolist(), (r * r).tolist())),
        lo=_columns(cx - reach, inv_h, nx),
        hi=_columns(cx + reach, inv_h, nx),
    )


def _in_disk_runs(
    pts: np.ndarray, col: np.ndarray, runs: _DiskRuns, covered: np.ndarray
) -> np.ndarray:
    """OR into ``covered`` which of ``pts`` lie in any disk of ``runs``.

    ``col`` holds the points' raster columns (``_columns``), in
    nondecreasing order. Each disk is tested, with the expression
    ``dx * dx + dy * dy <= r * r``, only on the contiguous points of its
    column run, which hold every point that can pass (see ``_disk_runs``).
    """
    lo = np.searchsorted(col, runs.lo, side="left").tolist()
    hi = np.searchsorted(col, runs.hi, side="right").tolist()
    xs, ys = pts[:, 0], pts[:, 1]
    for (cx, cy, r2), a, b in zip(runs.disks, lo, hi):
        dx = xs[a:b] - cx
        dy = ys[a:b] - cy
        covered[a:b] |= dx * dx + dy * dy <= r2
    return covered


def mc_coverage_fraction(
    field: SensorField,
    samples: int,
    seed: int,
    moves: Mapping[int, Point] | None = None,
) -> CoverageEstimate:
    """Fraction of the field within sensing range of any sensor, before and after ``moves``.

    Both fractions are counted on one set of uniform samples from
    ``numpy.random.default_rng(seed)`` (paired sampling), so without moves
    they are equal; the same seed yields bitwise-identical results run to
    run. ``moves`` maps ids of ``field``'s mobiles to positions (points or
    ``(x, y)`` pairs) in the field; other mobiles stay put. A move that
    names an unknown mobile is ``inconsistent-input``, and a target that is
    not finite or lies outside the field ``invalid-input``, before any
    sample is drawn; so every disk centre lies in the field, as ``_stamp``'s
    proof needs. ``half_width`` is the larger of the two 99% binomial
    confidence half-widths.

    Only hit counts leave the loop, so the order of the points within a
    chunk is free. Each chunk is tested in one pass:

    1. Each sample gets its column in a raster of the field built once per
       call. Each stationary sensor stamps the cells within its reach, a few
       float operations per (sensor, cell) pair in place of a kd query per
       cell (``_stamp``). The cell count is the largest that keeps the
       stamp's pairs, the cells per sample and the 16-bit keys in bounds
       (``_raster_layout``). A field without stationary sensors takes the
       same path: its raster is all uncovered cells, and its empty kd-tree
       is never queried.
    2. The stationary disks are decided first: each sample takes the state
       of its cell, and only the samples in cells that the raster cannot
       decide are queried in the kd-tree, in cell order (``_stamp`` shows
       that the decided samples get the query's answer).
    3. If the field has mobiles, the samples the stationary disks leave
       uncovered are kept and ordered by column (numpy's stable sort of
       16-bit keys is a radix sort).
    4. Each mobile disk is tested only on the contiguous kept samples of its
       column run, whose ends are the stamp's reach about its centre
       (``_disk_runs`` applies ``_stamp``'s proof to show that no sample
       outside the run can pass): the staying disks once, then the leaving
       and the arriving ones.
    """
    if samples <= 0:
        raise InvalidInputError(f"sample count must be > 0, got {samples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    moves = moves or {}
    mobiles = {m.id for m in field.mobile}
    for mobile_id, target in moves.items():
        x, y = target[0], target[1]
        if mobile_id not in mobiles:
            raise InconsistentInputError(f"moves name unknown mobile id {mobile_id}")
        if not (0.0 <= x <= field.width and 0.0 <= y <= field.height):
            raise InvalidInputError(f"moves mobile {mobile_id} to ({x}, {y}), outside the field")
    radius = field.sensing_radius
    sites = np.array(
        [[s.position.x, s.position.y] for s in field.stationary], dtype=float
    ).reshape(-1, 2)
    tree = cKDTree(sites)
    raster = _stamp(
        _raster_layout(field.width, field.height, samples, len(sites), radius), sites, radius
    )
    inv_h = 1.0 / raster.h
    staying, leaving, arriving = (
        _disk_runs(disks, raster.h, raster.nx)
        for disks in (
            [(m.position, m.radius) for m in field.mobile if m.id not in moves],
            [(m.position, m.radius) for m in field.mobile if m.id in moves],
            [(moves[m.id], m.radius) for m in field.mobile if m.id in moves],
        )
    )
    rng = np.random.default_rng(seed)
    hits_before = hits_after = 0
    for start in range(0, samples, MC_CHUNK):
        pts = rng.random((min(MC_CHUNK, samples - start), 2))
        pts[:, 0] *= field.width
        pts[:, 1] *= field.height
        col = _columns(pts[:, 0], inv_h, raster.nx)
        covered = _stationary_covered(pts, col, tree, raster, radius)
        hits = int(np.count_nonzero(covered))
        hits_before += hits
        hits_after += hits
        if field.mobile:
            gap = np.flatnonzero(~covered)
            gap = gap.take(np.argsort(col.take(gap), kind="stable"))
            pts, col = pts.take(gap, axis=0), col.take(gap)
            covered = _in_disk_runs(pts, col, staying, np.zeros(len(pts), dtype=bool))
            hits_before += int(np.count_nonzero(_in_disk_runs(pts, col, leaving, covered.copy())))
            hits_after += int(np.count_nonzero(_in_disk_runs(pts, col, arriving, covered)))
    before, after = hits_before / samples, hits_after / samples
    half_width = max(
        _Z99 * sqrt(p * (1.0 - p) / samples) for p in (before, after)
    )
    return CoverageEstimate(
        before=before, after=after, samples=samples, seed=seed, half_width=half_width
    )

