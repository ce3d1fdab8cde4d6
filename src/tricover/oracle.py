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
from typing import Mapping

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

# Tags of the mobile disks of one call (see ``_windows``): a disk that stays
# counts before and after the moves, one that leaves before, and one that
# arrives after.
_STAYING, _LEAVING, _ARRIVING = 0, 1, 2


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
    ``[i * h, (i + 1) * h] x [j * h, (j + 1) * h]``, and ``site[j * nx + i]``
    the index of the one site that reaches the cell if it is mixed and one
    site alone reaches it, and -1 otherwise (see ``_stamp``); a layout
    alone has ``state`` and ``site`` None.
    """

    h: float
    nx: int
    ny: int
    state: np.ndarray | None
    site: np.ndarray | None = None


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


def _window_rows(raster: _Raster, radii: np.ndarray) -> int:
    """An upper bound on the window rows of disks of ``radii`` centred in the field.

    A window spans at most ``int(2 * reach / h + 3)`` rows, as in
    ``_pair_bound``, and at most all ``ny`` of them.
    """
    span = 2.0 * _reach(radii, raster.h) / raster.h + 3.0
    return int(np.minimum(raster.ny, span).astype(np.int64).sum())


def _raster_layout(
    width: float, height: float, samples: int, sites: int, radius: float, radii: np.ndarray
) -> _Raster:
    """The layout ``mc_coverage_fraction`` stamps: the most cells, and at least one, such that

    - there are at most ``MC_CHUNK`` cells, so column and cell keys fit in
      16 bits;
    - there is at most one cell per two samples;
    - the stamp visits at most ``max(sites, min(_STAMP_PAIRS, 2 * samples))``
      pairs (``_pair_bound``), so that an over-covered field, or a run of
      few samples, stamps no more than the raster saves. A pair costs a few
      float operations, about a twentieth of a kd query;
    - the windows of the mobile disks, of radii ``radii``, hold at most
      ``max(MC_CHUNK, len(radii))`` rows in all (``_window_rows``), which
      bounds the segment table of the mobile pass (``_windows``).

    The count is the cap if it fits, and otherwise the largest that a
    bisection finds below it; one cell always fits.
    """
    budget = max(sites, min(_STAMP_PAIRS, 2 * samples))
    rows = max(MC_CHUNK, len(radii))

    def fits(cells: int) -> bool:
        layout = _layout(cells, width, height)
        return _pair_bound(layout, sites, radius) <= budget and _window_rows(layout, radii) <= rows

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
    ``d - δ < R * (1 + 1e-9)``, and *mixed* otherwise; a pair that meets the
    second test *reaches* its cell. A pair left out of the windows has its
    cell centre more than B plus nearly half a cell from the site along x
    or y, so it would meet neither test: the windows change no state, and
    the tests check the states against every site. The raster's ``site``
    column names, for each mixed cell that one site alone reaches, that
    site, and holds -1 for every other cell; a covering pair decides its
    cell, so only the other reaching pairs are recorded.

    A point ``p`` of the field in a covered (uncovered) cell, as
    ``_stationary_covered`` assigns it, passes (fails) the plain test
    ``tree.query(p, distance_upper_bound=nextafter(R, inf))[0] <= R`` of a
    kd-tree of the sites. In a mixed cell that one site s alone reaches,
    the test ``sqrt(dx * dx + dy * dy) <= R`` against s gives the same
    answer, but for the query's pruning within a relative 1e-12 of R. With
    u = 2**-53 the unit roundoff, the field's sides and R in
    [2**-400, 2**400] (no square below overflows, and one that underflows
    moves a distance by at most 2**-537, far below 1e-11 * h), and the
    sites within ``2**40 * h`` of the origin (a site of the field lies
    within ``2**16.01 * h``):

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
    - Mixed, one site s alone reaches the cell: no pair covers the cell,
      and every other site's pair fails the reach test or lies outside its
      window, so by the two uncovered bullets p's computed distance to
      that site exceeds R * (1 + 9.8e-10). The plain query can then
      return only s's computed distance, or nothing. scipy computes it as
      numpy does here: the two rounded squares of the rounded
      differences, summed x first, and a correctly rounded square root.
      So the direct test and the query agree, except where the query's
      pruning drops s within a relative 1e-12 of its bound (the first
      bullet).

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
    # the last site seen to reach each cell without covering it, and
    # whether another one did
    site = np.full(nx * ny, -1, dtype=np.int32)
    twice = np.zeros(nx * ny, dtype=bool)
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
        # the site of each pair in a block of rows
        ids = np.tile(np.arange(a, b, dtype=np.int32).take(k), (min(step, top), 1))
        for t in range(0, top, step):
            # rows t to t + step - 1 of each site's window, one per line of d
            dt = np.arange(t, min(t + step, top))[:, np.newaxis]
            dy = cy.take(y0[a:b] + dt, mode="clip") - sy[a:b]
            d = np.sqrt(dx2 + (dy * dy).take(k, axis=1))
            live = dt < height
            cell = base + dt * nx
            inner = live & (d + delta <= radius * (1.0 - 1e-9))
            covered[cell[inner]] = True
            # Each pair is visited once, so a cell reached in an earlier
            # block, or twice in this one, is reached by two sites.
            near = live & (d - delta < radius * (1.0 + 1e-9)) & ~inner
            hit, who = cell[near], ids[: len(dt)][near]
            seen = site.take(hit)
            site[hit] = who
            twice[hit[(seen >= 0) | (site.take(hit) != who)]] = True
        a = b
    state = np.where(site >= 0, _MIXED, _UNCOVERED).astype(np.int8)
    state[covered] = _COVERED
    site[twice | covered] = -1
    return _Raster(h, nx, ny, state, site)


def _columns(x: np.ndarray, inv_h: float, n: int) -> np.ndarray:
    """Raster column of each abscissa in ``x`` (or row of each ordinate), as uint16.

    The map ``trunc(clip(x * inv_h, 0, n - 1))`` never decreases as x
    grows: the rounded product is monotone in x, and so are the clip and
    the truncation. For x >= 0 it is ``min(floor(x * inv_h), n - 1)``.
    Clipping in float before the cast keeps huge and infinite x in range,
    and ``n <= MC_CHUNK = 2**16`` makes every column fit in 16 bits.
    """
    v = x * inv_h
    return np.clip(v, 0.0, n - 1, out=v).astype(np.uint16)


def _stationary_covered(
    pts: np.ndarray,
    cell: np.ndarray,
    sites: np.ndarray,
    tree: cKDTree,
    raster: _Raster,
    radius: float,
) -> np.ndarray:
    """Which of ``pts`` (points of the raster's field) lie within ``radius`` of one of ``sites``.

    ``tree`` is a kd-tree of ``sites``, the sites ``raster`` was stamped
    with, and ``cell`` holds the points' raster cell keys ``row * nx + col``
    (``_columns`` of each coordinate), of an integer type. A point in a
    covered or uncovered cell of ``raster`` takes the cell's state, and a
    point in a mixed cell that one site alone reaches is tested with
    ``sqrt(dx * dx + dy * dy) <= radius`` against that site; both are the
    plain query's answer (see ``_stamp``). The points in mixed cells that
    several sites reach are queried, in cell order, so that successive
    queries search nearby parts of the tree. Each answer is the point's
    own, whatever the order.
    """
    state = raster.state.take(cell)
    covered = state == _COVERED
    mixed = np.flatnonzero(state == _MIXED)
    site = raster.site.take(cell.take(mixed))
    one = site >= 0
    alone = mixed[one]
    dx, dy = (pts.take(alone, axis=0) - sites.take(site[one], axis=0)).T
    covered[alone] = np.sqrt(dx * dx + dy * dy) <= radius
    mixed = mixed[~one]
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


def _windows(disks: np.ndarray, tag: np.ndarray, raster: _Raster) -> _Windows:
    """The window segments on ``raster`` of the mobile ``disks``, rows ``(sx, sy, r)``.

    Each disk is tagged ``_STAYING``, ``_LEAVING`` or ``_ARRIVING`` in
    ``tag``. A disk's window is the stamp's, with the reach
    ``B = _reach(r, h)``: the columns from ``c0 = _columns(sx - B)`` to
    ``c1 = _columns(sx + B)`` and the rows from ``_columns(sy - B)`` to
    ``_columns(sy + B)``. Its segment in row j holds the cell keys
    ``j * nx + c0`` to ``j * nx + c1``. Its inner interval is a run of
    those columns, found thus: with ``δ`` the stamp's, ``t = r * (1 - 1e-9) - δ`` and
    ``dy = (j + 0.5) * h - sy``, the columns i whose centre
    ``(i + 0.5) * h`` lies within ``sqrt(t**2 - dy**2)`` of sx, clipped to
    the window, are kept only if both end columns pass the stamp's covered
    test ``sqrt(dx * dx + dy * dy) + δ <= r * (1 - 1e-9)``, with
    ``dx = (i + 0.5) * h - sx``; otherwise the row has no inner cells. The
    closed form only proposes the interval: the test decides it.

    A point of the field that ``_columns`` places outside a disk's window
    fails the test ``dx * dx + dy * dy <= r * r``, and one that it places
    in an inner cell passes it; so marking the inner cells and testing the
    edge cells alone gives the mask of a test of every point. The centres
    lie in the field and r in ``LENGTH_RANGE``, so ``_stamp``'s proof holds
    with R = r. With u = 2**-53 the unit roundoff:

    - Outside the window, say in a column after it: ``_columns`` is the
      map of the "window misses" bullet, so |x - sx| > r * (1 + 9.9e-10).
      ``dx = x - sx`` rounds with relative error at most u, so
      |dx| > r * (1 + 9.8e-10). ``r * r`` and ``dx * dx`` are normal
      floats, each rounded with relative error at most u; ``dy * dy >= 0``
      and rounding is monotone, so the computed sum is at least
      ``dx * dx >= r**2 * (1 + 1.9e-9) * (1 - u) > r**2 * (1 + u) >= r * r``.
      ``_columns`` is the same monotone map for rows, so a point in a row
      outside the window fails alike, with dx and dy swapped.
    - Inner cells: the computed centre ``(i + 0.5) * h`` and so the computed
      dx never decrease as i grows, so the computed ``dx * dx`` and the
      distance fall and then rise along a row, and the largest distance of
      an interval is at one of its ends. So every cell of the inner
      interval passes the covered test, and by the stamp's covered bullet a
      point p in it lies within r * (1 - 1e-9 + 5.1u) of the centre s.
      p's computed ``dx * dx + dy * dy`` is at most
      |p - s|**2 * (1 + u)**4 < r**2 * (1 - 1.9e-9) < r**2 * (1 - u)
      <= r * r (a square that underflows adds at most 2**-1074, far below
      1e-9 * r**2).
    """
    h, nx, ny = raster.h, raster.nx, raster.ny
    inv_h = 1.0 / h
    sx, sy, r = disks[:, 0], disks[:, 1], disks[:, 2]
    reach = _reach(r, h)
    y0 = _columns(sy - reach, inv_h, ny).astype(np.intp)
    rows = _columns(sy + reach, inv_h, ny) - y0 + 1
    # one segment per (disk, window row)
    disk = np.repeat(np.arange(len(disks)), rows)
    row = np.arange(len(disk)) - (np.cumsum(rows) - rows).take(disk) + y0.take(disk)
    x = sx.take(disk)
    c0 = _columns(sx - reach, inv_h, nx).astype(np.intp).take(disk)
    c1 = _columns(sx + reach, inv_h, nx).astype(np.intp).take(disk)
    dy = (row + 0.5) * h - sy.take(disk)
    dy2 = dy * dy
    limit = (r * (1.0 - 1e-9)).take(disk)
    delta = h * _HALF_DIAGONAL
    t = limit - delta
    w = np.sqrt(np.maximum((t - np.abs(dy)) * (t + np.abs(dy)), 0.0))
    first = np.clip(np.ceil((x - w) * inv_h - 0.5), c0, c1 + 1)
    last = np.clip(np.floor((x + w) * inv_h - 0.5), c0 - 1, c1)

    def covered(col: np.ndarray) -> np.ndarray:
        dx = (col + 0.5) * h - x
        return np.sqrt(dx * dx + dy2) + delta <= limit

    inner = (first <= last) & covered(first) & covered(last)
    base = row * nx
    lo, hi = base + c0, base + c1 + 1
    return _Windows(
        centre=disks[:, :2].copy(),
        r2=r * r,
        before=tag != _ARRIVING,
        after=tag != _LEAVING,
        reached=_union(lo, hi, nx * ny),
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
    pairs in blocks of at most ``_STAMP_BLOCK`` pairs (or one run), each
    tested with ``dx * dx + dy * dy <= r * r``. By ``_windows`` this gives
    the mask of a test of every point against every disk.
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
    ends = np.cumsum(length)
    starts = ends - length
    j = 0
    while j < len(run):
        # runs j to k - 1: at most _STAMP_BLOCK pairs in all, or one run
        k = max(j + 1, int(np.searchsorted(ends, starts[j] + _STAMP_BLOCK, side="right")))
        # one entry per (point, disk) pair
        which = np.repeat(np.arange(j, k), length[j:k])
        i = np.arange(starts[j], ends[k - 1]) - starts.take(which) + first.take(which)
        d = disk.take(which)
        sq = pts.take(i, axis=0)
        sq -= windows.centre.take(d, axis=0)
        sq *= sq
        hit = np.flatnonzero(sq[:, 0] + sq[:, 1] <= windows.r2.take(d))
        i, d = i.take(hit), d.take(hit)
        for mask, counts in zip(masks, (windows.before, windows.after)):
            mask[i[counts.take(d)]] = True
        j = k
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
       within its reach, a few float operations per (sensor, cell) pair in
       place of a kd query per cell (``_stamp``). The cell count is the
       largest that keeps the stamp's pairs, the mobile windows' rows, the
       cells per sample and the 16-bit keys in bounds (``_raster_layout``).
       A field without stationary sensors takes the same path: its raster
       is all uncovered cells, and its empty kd-tree is never queried.
    2. The stationary disks are decided first. Each sample in a covered
       or uncovered cell takes the state of its cell. A sample in a mixed
       cell that one sensor alone reaches is tested against that sensor,
       ``sqrt(dx * dx + dy * dy) <= R``; the stamp records that sensor as it
       visits the pairs. Only the samples in mixed cells that several
       sensors reach are queried in the kd-tree, in cell order (``_stamp``
       shows that the samples decided without it get the query's answer).
    3. If the field has mobiles, the samples the stationary disks leave
       uncovered in a cell that some mobile window reaches are kept and
       ordered by cell key (numpy's stable sort of 16-bit keys is a radix
       sort). A mobile disk's window is the stamp's, with the stamp's
       reach about its centre, and no sample outside it can pass the
       disk's test (``_windows``).
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
    tag = np.repeat(
        [_STAYING, _LEAVING, _ARRIVING], [len(field.mobile) - len(moved), len(moved), len(moved)]
    )
    tree = cKDTree(sites)
    raster = _stamp(
        _raster_layout(field.width, field.height, samples, len(sites), radius, disks[:, 2]),
        sites,
        radius,
    )
    windows = _windows(disks, tag, raster)
    inv_h = 1.0 / raster.h
    rng = np.random.default_rng(seed)

    def chunk_hits(size: int) -> tuple[int, int]:
        # The hits of the next ``size`` samples, before and after the moves;
        # the chunk's arrays are freed on return, before the next one is drawn.
        pts = rng.random((size, 2))
        pts[:, 0] *= field.width
        pts[:, 1] *= field.height
        # row * nx + col < MC_CHUNK = 2**16, built in place
        cell = _columns(pts[:, 1], inv_h, raster.ny).astype(np.int32)
        cell *= raster.nx
        cell += _columns(pts[:, 0], inv_h, raster.nx)
        covered = _stationary_covered(pts, cell, sites, tree, raster, radius)
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

