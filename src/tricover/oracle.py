"""Verify's Monte-Carlo coverage estimator.

``mc_coverage_fraction`` measures how much of a field its sensors cover,
before and after a plan moves some mobiles, on seeded uniform samples.
Coverage is decided by plain distance comparisons: a raster of the
stationary disks settles most samples, the distance to the one sensor
that reaches a sample's cell most of the others, and a kd-tree query the
rest. The samples the stationary sensors leave uncovered in the cells
some mobile disk can reach are then ordered by raster cell. All mobile
disks are applied at once, row by row of the window of cells each one can
reach: the samples in the cells wholly inside a disk are marked covered
without a distance test, and only those in its edge cells are tested. The
estimator shares no code with the closed-form geometry of ``detect``, so
it also serves the tests as an independent check of the hole areas.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter, sqrt
from typing import Iterator, Mapping

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

# The codes of a raster cell that no one site names (see ``_stamp``), in this
# order; a code >= 0 is the index of the one site that reaches the cell
# without covering it.
_UNCOVERED, _SHARED, _COVERED = -1, -2, -3

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
class _Grid:
    """Square cells of side ``h``, ``nx`` by ``ny``, from the origin.

    The cell of key ``j * nx + i`` is ``[i * h, (i + 1) * h] x [j * h, (j + 1) * h]``.
    """

    h: float
    nx: int
    ny: int


def _layout(cells: int, width: float, height: float) -> _Grid:
    """About ``cells`` square cells over ``[0, width] x [0, height]``.

    ``nx`` columns near ``sqrt(cells * width / height)``, ``ny = cells // nx``
    rows, and side ``h = max(width / nx, height / ny)``.
    """
    nx = int(min(cells, max(1.0, sqrt(cells * (width / height)))))
    ny = cells // nx
    return _Grid(max(width / nx, height / ny), nx, ny)


def _reach(radius: float, h: float) -> float:
    """How far from a site a cell centre can be and the site still reach the cell."""
    return radius * (1.0 + 1e-9) + h * _HALF_DIAGONAL


def _span(grid: _Grid, radius: float | np.ndarray) -> float | np.ndarray:
    """A bound on the columns, and on the rows, of the window of a disk of ``radius`` in the field.

    A window (``_window``) spans fewer than ``2 * reach / h + 2`` columns,
    plus a rounding far below one cell while the disk's centre lies within
    ``2**40 * h`` of the origin, as every point of the field does: at most
    ``int(2 * reach / h + 3)`` columns, and as many rows.
    """
    return 2.0 * _reach(radius, grid.h) / grid.h + 3.0


def _raster_layout(
    width: float, height: float, samples: int, sites: int, radius: float, radii: np.ndarray
) -> _Grid:
    """The layout ``mc_coverage_fraction`` stamps: the most cells, and at least one, such that

    - there are at most ``MC_CHUNK`` cells, so column and cell keys fit in
      16 bits;
    - there is at most one cell per two samples;
    - the stamp visits at most ``max(sites, min(_STAMP_PAIRS, 2 * samples))``
      pairs (a site's ``_span`` of columns times its span of rows), so that
      an over-covered field, or a run of few samples, stamps no more than
      the raster saves. A pair costs a few float operations, about a
      twentieth of a kd query;
    - the windows of the mobile disks, of radii ``radii``, hold at most
      ``max(MC_CHUNK, len(radii))`` rows in all (the sum of their spans),
      which bounds the segment table of the mobile pass (``_windows``).

    The count is the cap if it fits, and otherwise the largest that a
    bisection finds below it; one cell always fits.
    """
    pairs = max(sites, min(_STAMP_PAIRS, 2 * samples))
    rows = max(MC_CHUNK, len(radii))

    def fits(cells: int) -> bool:
        grid = _layout(cells, width, height)
        span = _span(grid, radius)
        return (
            sites * int(min(grid.nx, span)) * int(min(grid.ny, span)) <= pairs
            and np.minimum(grid.ny, _span(grid, radii)).astype(np.int64).sum() <= rows
        )

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


def _columns(x: np.ndarray, inv_h: float, n: int) -> np.ndarray:
    """Raster column of each abscissa in ``x`` (or row of each ordinate), as uint16.

    The map ``trunc(clip(x * inv_h, 0, n - 1))`` never decreases as x
    grows: the rounded product is monotone in x, and so are the clip and
    the truncation. For x >= 0 it is ``min(floor(x * inv_h), n - 1)``.
    Clipping in float before the cast keeps huge and infinite x in range,
    and ``n <= MC_CHUNK = 2**16`` makes every column fit in 16 bits.

    A point p of the field is thus placed in a cell whose centre c lies
    within ``δ = h * _HALF_DIAGONAL`` of it, with ``_stamp``'s u and
    lengths. ``x * (1/h)`` is within a relative 2.01u of x / h, and
    x <= width <= nx * h * (1 + 1.01u), so x lies in its column widened by
    2.02u * nx * h <= 2.02 * 2**-37 * h on each side (nx <= 2**16): a point
    can land one cell off by a few ulps. The computed centre
    ``(i + 0.5) * h`` is within u * nx * h <= 2**-37 * h of the true one.
    So |x - cx| <= h/2 * (1 + 4.4e-11), likewise for y, and
    |p - c| <= h/sqrt(2) * (1 + 4.4e-11). The computed δ is at least
    h/sqrt(2) * (1 + 1e-9) * (1 - 4u), so |p - c| <= δ - 9.5e-10 * h/sqrt(2).
    """
    v = x * inv_h
    return np.clip(v, 0.0, n - 1, out=v).astype(np.uint16)


def _window(
    x: np.ndarray, y: np.ndarray, radius: float | np.ndarray, grid: _Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first and last column and the first and last row of each disk's window on ``grid``.

    The disks have centres ``(x, y)`` and one ``radius`` or one each. With
    the reach ``B = _reach(radius, h)``, a window runs from column
    ``_columns(x - B)`` to ``_columns(x + B)`` and from row
    ``_columns(y - B)`` to ``_columns(y + B)``: the map that places the
    samples clips it to the grid. Nothing outside a window passes a test of
    its disk, of centre s (``_stamp``'s conditions and names, R = radius):

    - A cell outside has its centre more than B plus nearly half a cell
      from s along x or y: it passes neither ``_covers`` nor the reach test.
    - A point p of the field placed outside, say in a column after the
      window's: the column map never decreases as x grows and places p and
      ``e = fl(s.x + B)`` through the same product, so p.x > e, and
      p.x - s.x > B - u * (|s.x| + B) >= (R' + δ) * (1 - 3u) - 2**-13 * h
      > R * (1 + 9.9e-10); the other three sides are alike. So p's computed
      distance exceeds R * (1 + 9.8e-10): the kd query finds no site within
      ``nextafter(R, inf)``. The rounded |dx| does too, and ``R * R`` and
      ``dx * dx`` are normal floats rounded with relative error at most u;
      as ``dy * dy >= 0`` and rounding is monotone, the computed
      ``dx * dx + dy * dy`` is at least
      ``dx * dx >= R**2 * (1 + 1.9e-9) * (1 - u) > R**2 * (1 + u) >= R * R``.
    """
    inv_h = 1.0 / grid.h
    reach = _reach(radius, grid.h)
    return tuple(
        _columns(v, inv_h, n).astype(np.intp)
        for v, n in ((x - reach, grid.nx), (x + reach, grid.nx), (y - reach, grid.ny), (y + reach, grid.ny))
    )


def _covers(d: np.ndarray, radius: float | np.ndarray, h: float) -> np.ndarray:
    """Whether cells of side ``h`` lie inside a disk of ``radius``: ``d + δ <= radius * (1 - 1e-9)``.

    ``d`` is the computed distance of a cell's centre c from the disk's
    centre s, and ``δ = h * _HALF_DIAGONAL``. With ``_stamp``'s conditions
    and R = radius, a point p of the field placed in such a cell passes
    every test of the disk: |c - s| <= d * (1 + 3.01u) and |p - c| <= δ
    (``_columns``), so |p - s| <= (d + δ) * (1 + 3.01u)
    <= R * (1 - 1e-9) * (1 + u)**2 * (1 + 3.01u) < R * (1 - 1e-9 + 5.1u).
    Its computed distance is below R * (1 - 1e-9 + 8.2u), far below the kd
    query's bound, and its computed ``dx * dx + dy * dy`` at most
    |p - s|**2 * (1 + u)**4 < R**2 * (1 - 1.9e-9) < R**2 * (1 - u) <= R * R
    (a square that underflows adds at most 2**-1074, far below 1e-9 * R**2).
    """
    return d + h * _HALF_DIAGONAL <= radius * (1.0 - 1e-9)


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``lengths`` laid end to end, the run of each entry and its place in that run."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths).take(run)


def _blocks(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive groups ``j`` to ``k - 1`` of the runs of ``lengths``, of at most
    ``_STAMP_BLOCK`` entries in all or of one run, as ``(j, k)``."""
    ends = np.cumsum(lengths)
    j = 0
    while j < len(lengths):
        k = max(j + 1, int(np.searchsorted(ends, ends[j] - lengths[j] + _STAMP_BLOCK, side="right")))
        yield j, k
        j = k


def _stamp(grid: _Grid, sites: np.ndarray, radius: float) -> np.ndarray:
    """The code of each cell of ``grid`` for the disks of radius ``R = radius`` about ``sites``.

    Each site visits the cells of its window (``_window``) in blocks of
    about ``_STAMP_BLOCK`` (site, cell) pairs: sites in groups with that
    many window columns in all, or one site (``_blocks``), and as many
    window rows of a group at a time as keep the block in that size, or one
    row. A pair *covers* its cell if the distance d from its site s to the
    cell centre c = ``((i + 0.5) * h, (j + 0.5) * h)``, computed as
    ``sqrt(dx * dx + dy * dy)``, passes ``_covers``, and *reaches* it if
    ``d - δ < R * (1 + 1e-9)``, with ``δ = h * _HALF_DIAGONAL``. A cell's
    code is ``_COVERED`` if a pair covers it; otherwise the index of the one
    site that reaches it, ``_SHARED`` if several do, and ``_UNCOVERED`` if
    none does. A pair outside the windows would neither cover nor reach its
    cell (``_window``), so these are the codes of every site.

    A point p of the field in a ``_COVERED`` (``_UNCOVERED``) cell, as
    ``_stationary_covered`` places it, passes (fails) the plain test
    ``tree.query(p, distance_upper_bound=nextafter(R, inf))[0] <= R`` of a
    kd-tree of the sites. In a cell that one site s alone reaches, the test
    ``sqrt(dx * dx + dy * dy) <= R`` against s gives the same answer, but
    for the query's pruning within a relative 1e-12 of R. The conditions
    and names, with u = 2**-53 the unit roundoff: the field's sides and R
    lie in [2**-400, 2**400] (no square below overflows, and one that
    underflows moves a distance by at most 2**-537, far below 1e-11 * h);
    the sites lie within ``2**40 * h`` of the origin (a site of the field
    lies within ``2**16.01 * h``); R' is the rounded ``R * (1 + 1e-9)``.

    - A distance computed by numpy here or by scipy in the query (the root
      of a rounded sum of rounded squares of rounded differences) is within
      a relative 3.01u of the true one. The kd search returns the least
      computed distance below its bound; as it prunes on rounded rectangle
      distances, it can miss only a site whose computed distance is within
      a relative 1e-12 of the bound.
    - Covered: by ``_covers``, p's computed distance to the covering site
      is far below R.
    - Uncovered, a site s whose window holds the cell: the rounded
      ``d - δ`` is at least R', so d - δ >= R' * (1 - u), and with |p - c|
      from ``_columns``,
      |p - s| >= |c - s| - |p - c| >= d * (1 - 3.01u) - δ + 9.5e-10 * h/sqrt(2)
      >= R' * (1 - 4.02u) + h/sqrt(2) * (9.5e-10 - 3.1u) > R * (1 + 9.9e-10),
      the middle expression being least at the least d. So p's computed
      distance to s exceeds R * (1 + 9.8e-10).
    - Uncovered, a site whose window misses the cell: likewise, by
      ``_window``. So the plain query finds no site within
      ``nextafter(R, inf)``.
    - One site s alone reaches the cell: no pair covers the cell, and every
      other site's pair fails the reach test or lies outside its window, so
      by the two uncovered bullets p's computed distance to that site
      exceeds R * (1 + 9.8e-10). The plain query can then return only s's
      computed distance, or nothing. scipy computes it as numpy does here:
      the two rounded squares of the rounded differences, summed x first,
      and a correctly rounded square root. So the direct test and the query
      agree, except where the query's pruning drops s within a relative
      1e-12 of its bound (the first bullet).

    The margin on R absorbs the rounding in terms of R's size; the widening
    of δ absorbs the cell-index rounding, which scales with h and matters on
    the uncovered side when R is far below h.
    """
    h, nx = grid.h, grid.nx
    delta = h * _HALF_DIAGONAL
    sx, sy = sites[:, 0], sites[:, 1]
    x0, x1, y0, y1 = _window(sx, sy, radius, grid)
    w = x1 - x0 + 1
    rows = y1 - y0 + 1
    cx = (np.arange(nx) + 0.5) * h
    cy = (np.arange(grid.ny) + 0.5) * h
    code = np.full(nx * grid.ny, _UNCOVERED, dtype=np.int32)
    for a, b in _blocks(w):
        # one entry per (site, window column); k is the site's index in the group
        k, col = _runs(w[a:b])
        col += x0[a:b].take(k)
        dx = cx.take(col) - sx[a:b].take(k)
        dx2 = dx * dx
        base = y0[a:b].take(k) * nx + col
        height = rows[a:b].take(k)
        top = int(rows[a:b].max())
        step = max(1, _STAMP_BLOCK // len(k))
        # the site of each pair in a block of rows
        ids = np.tile(np.arange(a, b, dtype=np.int32).take(k), (min(step, top), 1))
        for t in range(0, top, step):
            # rows t to t + step - 1 of each site's window, one per line of d
            dt = np.arange(t, min(t + step, top))[:, np.newaxis]
            dy = cy.take(y0[a:b] + dt, mode="clip") - sy[a:b]
            d = np.sqrt(dx2 + (dy * dy).take(k, axis=1))
            live = dt < height
            cell = base + dt * nx
            inner = live & _covers(d, radius, h)
            code[cell[inner]] = _COVERED
            # A pair that reaches a cell without covering it names its site
            # in an _UNCOVERED cell, makes a cell that names a site _SHARED,
            # and leaves a _SHARED or _COVERED one as it is (the lesser code).
            # Each pair is visited once, so a cell that two pairs of this
            # block name, where the last write wins, is _SHARED too.
            near = live & (d - delta < radius * (1.0 + 1e-9)) & ~inner
            hit = cell[near]
            mark = code.take(hit)
            mark = np.where(mark == _UNCOVERED, ids[: len(dt)][near], np.minimum(mark, _SHARED))
            code[hit] = mark
            code[hit[code.take(hit) != mark]] = _SHARED
    return code


def _stationary_covered(
    pts: np.ndarray,
    cell: np.ndarray,
    sites: np.ndarray,
    tree: cKDTree,
    code: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Which of ``pts`` (points of the raster's field) lie within ``radius`` of one of ``sites``.

    ``code`` is the code column ``_stamp`` made of ``sites``, ``tree`` a
    kd-tree of them, and ``cell`` holds the points' raster cell keys
    ``row * nx + col`` (``_columns`` of each coordinate), of an integer
    type. A point in a ``_COVERED`` or ``_UNCOVERED`` cell takes that
    answer, and a point in a cell that one site alone reaches is tested
    with ``sqrt(dx * dx + dy * dy) <= radius`` against that site; both are
    the plain query's answer (see ``_stamp``). The points in ``_SHARED``
    cells are queried, in cell order, so that successive queries search
    nearby parts of the tree. Each answer is the point's own, whatever the
    order.
    """
    # The points' cells are random, so they first read a table that stays
    # in cache: each cell's code as int8, with every site index as 0 (a
    # gather of the int32 codes made verify_s 7% slower on verify-heavy).
    kind = np.minimum(code, 0).astype(np.int8).take(cell)
    covered = kind == _COVERED
    alone = np.flatnonzero(kind == 0)
    dx, dy = (pts.take(alone, axis=0) - sites.take(code.take(cell.take(alone)), axis=0)).T
    covered[alone] = np.sqrt(dx * dx + dy * dy) <= radius
    shared = np.flatnonzero(kind == _SHARED)
    if len(shared):
        # cell < MC_CHUNK = 2**16: a stable sort of 16-bit keys is a radix sort.
        shared = shared.take(np.argsort(cell.take(shared).astype(np.uint16), kind="stable"))
        # cKDTree's bound is strict; the next float up keeps points at exactly R.
        dist, _ = tree.query(
            pts.take(shared, axis=0), distance_upper_bound=nextafter(radius, inf)
        )
        covered[shared] = dist <= radius
    return covered


@dataclass(frozen=True)
class _Windows:
    """The mobile disks of one call, and one segment per row of each disk's window.

    Disk k has centre ``centre[k]`` and squared radius ``r2[k]``
    (``r * r``); it counts before the moves if ``before[k]`` and after
    them if ``after[k]``. Segment g is a row of the window of disk
    ``disk[g]``: the cells with keys ``lo[g]`` to ``hi[g] - 1``, of which
    ``a[g]`` to ``b[g] - 1`` are its inner interval (see ``_windows``).
    ``reached[c]`` says whether cell c lies in some window.
    """

    centre: np.ndarray
    r2: np.ndarray
    before: np.ndarray
    after: np.ndarray
    reached: np.ndarray
    disk: np.ndarray
    lo: np.ndarray
    a: np.ndarray
    b: np.ndarray
    hi: np.ndarray


def _union(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Whether each of ``0`` to ``n - 1`` lies in some interval from ``lo[g]``
    to ``hi[g] - 1``, ``0 <= lo[g] <= hi[g] <= n``, through a difference array."""
    opened = np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    return np.cumsum(opened[:n]) > 0


def _windows(disks: np.ndarray, before: np.ndarray, after: np.ndarray, grid: _Grid) -> _Windows:
    """The window segments on ``grid`` of the mobile ``disks``, rows ``(sx, sy, r)``.

    Disk k counts before the moves if ``before[k]`` and after them if
    ``after[k]``. Row j of a disk's window (``_window``), from column c0 to
    c1, is a segment of the cell keys ``j * nx + c0`` to ``j * nx + c1``.
    Its inner interval is a run of those columns, found thus: with δ as in
    ``_covers``, ``t = r * (1 - 1e-9) - δ`` and ``dy = (j + 0.5) * h - sy``,
    the columns i whose centre ``(i + 0.5) * h`` lies within
    ``sqrt(t**2 - dy**2)`` of sx, clipped to the window, are kept only if
    both end columns pass ``_covers``; otherwise the row has no inner
    cells. The closed form only proposes the interval: the test decides it.

    The centres lie in the field and r in ``LENGTH_RANGE``, so ``_stamp``'s
    conditions hold with R = r. A point of the field that ``_columns``
    places outside a disk's window fails the test ``dx * dx + dy * dy <= r * r``
    (``_window``). The computed centre ``(i + 0.5) * h`` and so the computed
    dx never decrease as i grows, so the computed ``dx * dx`` and the
    distance fall and then rise along a row, and the largest distance of an
    interval is at one of its ends: every cell of the inner interval passes
    ``_covers``, and a point placed in it passes the test. So marking the
    inner cells and testing the edge cells alone gives the mask of a test
    of every point.
    """
    h, nx = grid.h, grid.nx
    inv_h = 1.0 / h
    sx, sy, radii = disks[:, 0], disks[:, 1], disks[:, 2]
    c0, c1, r0, r1 = _window(sx, sy, radii, grid)
    # one segment per (disk, window row)
    disk, row = _runs(r1 - r0 + 1)
    row += r0.take(disk)
    x, r = sx.take(disk), radii.take(disk)
    c0, c1 = c0.take(disk), c1.take(disk)
    dy = (row + 0.5) * h - sy.take(disk)
    dy2 = dy * dy
    t = r * (1.0 - 1e-9) - h * _HALF_DIAGONAL
    w = np.sqrt(np.maximum((t - np.abs(dy)) * (t + np.abs(dy)), 0.0))
    first = np.clip(np.ceil((x - w) * inv_h - 0.5), c0, c1 + 1)
    last = np.clip(np.floor((x + w) * inv_h - 0.5), c0 - 1, c1)

    def covered(col: np.ndarray) -> np.ndarray:
        dx = (col + 0.5) * h - x
        return _covers(np.sqrt(dx * dx + dy2), r, h)

    inner = (first <= last) & covered(first) & covered(last)
    base = row * nx
    lo, hi = base + c0, base + c1 + 1
    return _Windows(
        centre=disks[:, :2].copy(),
        r2=radii * radii,
        before=before,
        after=after,
        reached=_union(lo, hi, nx * grid.ny),
        disk=disk,
        lo=lo,
        a=base + np.where(inner, first, c1 + 1).astype(np.intp),
        b=base + np.where(inner, last + 1, c1 + 1).astype(np.intp),
        hi=hi,
    )


def _mobile_masks(
    pts: np.ndarray, key: np.ndarray, windows: _Windows
) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``pts`` lie in a disk of ``windows`` that counts before the moves, and which after.

    ``pts`` are points of the field of the raster the windows were built
    on, and ``key`` holds their cell keys ``row * nx + col`` in
    nondecreasing order, so the points of a run of keys are
    contiguous; one table of where each key starts locates them all. The
    points of each segment's inner interval are marked through a
    difference array, with no distance test. The points of its edge cells,
    the runs before and after the interval, are expanded into (point, disk)
    pairs in blocks of at most ``_STAMP_BLOCK`` pairs, or one run
    (``_blocks``), each tested with ``dx * dx + dy * dy <= r * r``. By
    ``_windows`` this gives the mask of a test of every point against every
    disk.
    """
    n, cells = len(pts), len(windows.reached)
    start = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=cells), out=start[1:])
    lo, a, b, hi = (start.take(k) for k in (windows.lo, windows.a, windows.b, windows.hi))
    # the inner points of the before and of the after disks
    masks = tuple(
        _union(a[seg], b[seg], n)
        for seg in (windows.before.take(windows.disk), windows.after.take(windows.disk))
    )
    # the edge points: runs g and g + len(lo) are segment g's points before
    # and after its inner interval
    first = np.concatenate((lo, b))
    length = np.concatenate((a - lo, hi - b))
    run = np.flatnonzero(length)
    first, length = first.take(run), length.take(run)
    disk = windows.disk.take(run % len(lo))
    for j, k in _blocks(length):
        # one entry per (point, disk) pair
        which, i = _runs(length[j:k])
        i += first[j:k].take(which)
        d = disk[j:k].take(which)
        sq = pts.take(i, axis=0)
        sq -= windows.centre.take(d, axis=0)
        sq *= sq
        hit = np.flatnonzero(sq[:, 0] + sq[:, 1] <= windows.r2.take(d))
        i, d = i.take(hit), d.take(hit)
        for mask, counts in zip(masks, (windows.before, windows.after)):
            mask[i[counts.take(d)]] = True
    return masks


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

    1. Each sample gets its cell key ``row * nx + col`` in a raster of the
       field built once per call. Each stationary sensor stamps the cells
       of its window, a few float operations per (sensor, cell) pair in
       place of a kd query per cell, into one code per cell (``_stamp``).
       The cell count is the largest that keeps the stamp's pairs, the
       mobile windows' rows, the cells per sample and the 16-bit keys in
       bounds (``_raster_layout``). A field without stationary sensors
       takes the same path: its cells are all ``_UNCOVERED``, and its empty
       kd-tree is never queried.
    2. The stationary disks are decided first, each sample by its cell's
       code (``_stationary_covered``): a covered or uncovered cell answers
       for its samples, a sample in a cell that one sensor alone reaches is
       tested against that sensor, and only the samples in cells that
       several sensors reach are queried in the kd-tree, in cell order.
    3. If the field has mobiles, the samples the stationary disks leave
       uncovered in a cell that some mobile window reaches are kept and
       ordered by cell key (numpy's stable sort of 16-bit keys is a radix
       sort). A mobile disk's window is the stamp's (``_window``), and no
       sample outside it can pass the disk's test.
    4. The staying, leaving and arriving disks are applied together, one
       segment per (disk, window row), built once per call (``_windows``).
       The kept samples of a segment's inner interval, the cells wholly
       inside its disk, are marked covered with no distance test; only the
       samples of its edge cells are tested, ``dx * dx + dy * dy <= r * r``
       (``_mobile_masks``). The staying and leaving disks count before the
       moves, and the staying and arriving ones after.
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
    moved = [m for m in field.mobile if m.id in moves]
    disks = np.array(
        [(m.position.x, m.position.y, m.radius) for m in field.mobile if m.id not in moves]
        + [(m.position.x, m.position.y, m.radius) for m in moved]
        + [(moves[m.id][0], moves[m.id][1], m.radius) for m in moved],
        dtype=float,
    ).reshape(-1, 3)
    # the staying, the leaving and the arriving disks
    kinds = [len(field.mobile) - len(moved), len(moved), len(moved)]
    tree = cKDTree(sites)
    grid = _raster_layout(field.width, field.height, samples, len(sites), radius, disks[:, 2])
    code = _stamp(grid, sites, radius)
    windows = _windows(
        disks, np.repeat([True, True, False], kinds), np.repeat([True, False, True], kinds), grid
    )
    inv_h = 1.0 / grid.h
    rng = np.random.default_rng(seed)

    def chunk_hits(size: int) -> tuple[int, int]:
        # The hits of the next ``size`` samples, before and after the moves;
        # the chunk's arrays are freed on return, before the next one is drawn.
        pts = rng.random((size, 2))
        pts[:, 0] *= field.width
        pts[:, 1] *= field.height
        # row * nx + col < MC_CHUNK = 2**16, built in place
        cell = _columns(pts[:, 1], inv_h, grid.ny).astype(np.int32)
        cell *= grid.nx
        cell += _columns(pts[:, 0], inv_h, grid.nx)
        covered = _stationary_covered(pts, cell, sites, tree, code, radius)
        hits = int(np.count_nonzero(covered))
        if not len(disks):
            return hits, hits
        # The samples left uncovered in cells that some window reaches, by
        # cell key (a stable sort of 16-bit keys is a radix sort); the full
        # chunk's arrays are dropped once they are gathered.
        gap = np.flatnonzero(windows.reached.take(cell) & ~covered)
        cell = cell.take(gap).astype(np.uint16)
        order = np.argsort(cell, kind="stable")
        pts, cell = pts.take(gap.take(order), axis=0), cell.take(order)
        before, after = _mobile_masks(pts, cell, windows)
        return hits + int(np.count_nonzero(before)), hits + int(np.count_nonzero(after))

    hits_before = hits_after = 0
    for start in range(0, samples, MC_CHUNK):
        before, after = chunk_hits(min(MC_CHUNK, samples - start))
        hits_before += before
        hits_after += after
    before, after = hits_before / samples, hits_after / samples
    half_width = max(
        _Z99 * sqrt(p * (1.0 - p) / samples) for p in (before, after)
    )
    return CoverageEstimate(
        before=before, after=after, samples=samples, seed=seed, half_width=half_width
    )

