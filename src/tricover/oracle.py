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

from .errors import InvalidInputError
from .field import SensorField
from .geometry import Point

# Two-sided 99% normal quantile for binomial confidence half-widths.
_Z99 = 2.5758293035489004

# Monte-Carlo samples are drawn and tested this many at a time, which bounds
# memory whatever the sample count. Successive draws from one generator
# concatenate bit for bit to a single draw, so the chunk size changes no
# result.
MC_CHUNK = 1 << 16

# States of a stationary-coverage raster cell (see ``_coverage_raster``).
_UNCOVERED, _COVERED, _MIXED = 0, 1, 2

# Half the diagonal of a unit cell, widened by 1e-9.
_HALF_DIAGONAL = sqrt(0.5) * (1.0 + 1e-9)


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
    ``[i * h, (i + 1) * h] x [j * h, (j + 1) * h]``; a field without
    stationary sensors has the layout alone, and ``state`` None.
    """

    h: float
    nx: int
    ny: int
    state: np.ndarray | None


def _coverage_raster(
    tree: cKDTree | None, radius: float, width: float, height: float, samples: int
) -> _Raster:
    """Classify raster cells over ``[0, width] x [0, height]`` by the disks of ``tree``'s sensors.

    The raster has ``cells = min(samples // 8, MC_CHUNK)`` cells or fewer,
    and at least one: ``nx`` columns near ``sqrt(cells * width / height)``,
    ``ny = cells // nx`` rows and side ``h = max(width / nx, height / ny)``.
    Building it costs about one query per eight samples, and its memory is
    bounded whatever ``samples`` is. Without a tree the cells get no state.

    With ``R = radius`` and ``δ = h * sqrt(1/2) * (1 + 1e-9)``, one
    ``tree.query`` gives each cell centre ``c`` the distance ``d0`` to its
    nearest sensor, or ``inf`` when no sensor is nearer than
    ``B = R * (1 + 1e-9) + δ``. A cell is *covered* if
    ``d0 + δ <= R * (1 - 1e-9)``, *uncovered* if ``d0 - δ >= R * (1 + 1e-9)``
    and *mixed* otherwise.

    A point ``p`` of the field in a covered (uncovered) cell, as
    ``_stationary_covered`` assigns it, passes (fails) the plain test
    ``tree.query(p, distance_upper_bound=nextafter(R, inf))[0] <= R``. With
    u = 2**-53 the unit roundoff, and the field's sides and R in
    [2**-400, 2**400] (no square below overflows, and one that underflows
    moves a distance by at most 2**-537, far below 1e-11 * h):

    - A distance computed by scipy (the root of a rounded sum of rounded
      squares of rounded differences) is within a relative 3.01u of the true
      one. The kd search returns the least computed distance below its
      bound; as it prunes on rounded rectangle distances, it can miss only a
      sensor whose computed distance is within a relative 1e-12 of the bound.
    - ``_columns`` puts p in column ``min(floor(x * (1/h)), nx - 1)``.
      ``x * (1/h)`` is within a relative 2.01u of x / h, and
      x <= width <= nx * h * (1 + 1.01u), so x lies in the column widened by
      2.02u * nx * h <= 2.02 * 2**-37 * h on each side (nx <= 2**16): a
      point can land one cell off by a few ulps. The computed centre
      ``(i + 0.5) * h`` is within u * nx * h <= 2**-37 * h of the true one.
      So |x - cx| <= h/2 * (1 + 4.4e-11), likewise for y, and
      |p - c| <= h/sqrt(2) * (1 + 4.4e-11). The computed δ is at least
      h/sqrt(2) * (1 + 1e-9) * (1 - 4u), so |p - c| <= δ - 9.5e-10 * h/sqrt(2).
    - Covered: some sensor s has computed distance d0 from c, so
      |c - s| <= d0 * (1 + 3.01u) and |p - s| <= (d0 + δ) * (1 + 3.01u)
      <= R * (1 - 1e-9) * (1 + u)**2 * (1 + 3.01u) < R * (1 - 1e-9 + 5.1u).
      p's computed distance to s is below R * (1 - 1e-9 + 8.2u), far below
      R and the bound, so the plain query finds a distance <= R.
    - Uncovered: let R' and B be the rounded ``R * (1 + 1e-9)`` and
      ``R' + δ``, and m = min(d0, B), so that every sensor's computed
      distance from c is at least m * (1 - 1e-12). Either d0 < B and the
      rounded ``d0 - δ`` is at least R', or m = B >= (R' + δ) * (1 - u);
      both give m - δ >= R' - 1.02u * (R' + 2δ). Then every sensor s has
      |p - s| >= |c - s| - |p - c|
      >= m - δ - 1.02e-12 * m + 9.5e-10 * h/sqrt(2)
      >= R' * (1 - 1.03e-12) + h/sqrt(2) * (9.5e-10 - 2.1e-12)
      > R * (1 + 9.9e-10), as m <= (R' + δ) * (1 + u) and δ <= 1.01 * h/sqrt(2).
      p's computed distance to every sensor exceeds R * (1 + 9.8e-10), so
      the plain query finds none within ``nextafter(R, inf)``.

    The margin on R absorbs the rounding in terms of R's size; the widening
    of δ absorbs the cell-index rounding, which scales with h and matters on
    the uncovered side when R is far below h.
    """
    cells = max(1, min(samples // 8, MC_CHUNK))
    nx = int(min(cells, max(1.0, sqrt(cells * (width / height)))))
    ny = cells // nx
    h = max(width / nx, height / ny)
    if tree is None:
        return _Raster(h, nx, ny, None)
    delta = h * _HALF_DIAGONAL
    centres = np.empty((ny, nx, 2))
    centres[:, :, 0] = (np.arange(nx) + 0.5) * h
    centres[:, :, 1] = ((np.arange(ny) + 0.5) * h)[:, np.newaxis]
    d0, _ = tree.query(
        centres.reshape(-1, 2), distance_upper_bound=radius * (1.0 + 1e-9) + delta
    )
    state = np.full(nx * ny, _MIXED, dtype=np.int8)
    state[d0 + delta <= radius * (1.0 - 1e-9)] = _COVERED
    state[d0 - delta >= radius * (1.0 + 1e-9)] = _UNCOVERED
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
    the plain query's answer (see ``_coverage_raster``); the points in mixed
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


def _disk_runs(
    disks: Sequence[tuple[Point, float]], inv_h: float, nx: int
) -> _DiskRuns:
    """The run of raster columns (side ``1 / inv_h``, ``nx`` of them) each disk is tested on.

    A disk of centre (cx, cy) and radius r runs from the column of
    ``cx - reach`` to that of ``cx + reach``, where ``reach = r + m`` and the
    margin is ``m = 1e-9 * r + 1e-12 * |cx| + 2**-500``. A point outside the
    run fails the test ``dx * dx + dy * dy <= r * r`` in floating point too,
    so testing the run alone gives the mask of a test of every point.
    ``_columns`` never decreases as x grows and puts the ends through the
    same product with the same ``inv_h``, so a point whose column lies
    before the run has x < fl(cx - reach), and one whose column lies after
    it has x > fl(cx + reach). With u = 2**-53 the unit roundoff:

    - The computed ends ``cx -/+ reach`` are within u * (|cx| + reach) of
      the exact ones; the ``1e-12 * |cx|`` term outweighs that, so a point
      outside the run has |x - cx| > r * (1 + 9e-10) + 2**-501.
    - ``dx = x - cx`` rounds with relative error at most u (it is exact
      when subnormal), so |dx| > r * (1 + 8e-10) and |dx| > 2**-502.
    - ``dy * dy >= 0`` and rounding is monotone, so the computed sum is at
      least the computed ``dx * dx``. If ``r * r`` is a normal float, both
      squares round with relative error at most u, and
      ``dx * dx >= r**2 * (1 + 1.6e-9) * (1 - u) > r**2 * (1 + u) >= r * r``.
    - If ``r * r`` is subnormal, the squares round with absolute error at
      most 2**-1075: for r >= 2**-520, r**2 * 1.6e-9 exceeds their sum; for
      smaller r, ``dx * dx > 2**-1004`` is far above ``r * r < 2**-1040``.
    - If ``r * r`` overflows, every point passes the test; ``reach`` is
      then infinite and the run is every column.
    """
    table = np.array([(c[0], c[1], r) for c, r in disks], dtype=float).reshape(-1, 3)
    cx, r = table[:, 0], table[:, 2]
    with np.errstate(over="ignore"):
        r2 = r * r
    reach = np.where(r2 == inf, inf, r + (1e-9 * r + 1e-12 * np.abs(cx) + 2.0**-500))
    return _DiskRuns(
        disks=list(zip(cx.tolist(), table[:, 1].tolist(), r2.tolist())),
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
    run. ``moves`` maps ids of ``field``'s mobiles to positions; other
    mobiles stay put. ``half_width`` is the larger of the two 99% binomial
    confidence half-widths.

    Only hit counts leave the loop, so the order of the points within a
    chunk is free. Each chunk is tested in one pass:

    1. Each sample gets its column in a raster of the field built once per
       call (``_coverage_raster``; a field without stationary sensors gets
       the same layout without states).
    2. The stationary disks are decided first: each sample takes the state
       of its cell, and only the samples in cells that the raster cannot
       decide are queried in the kd-tree, in cell order
       (``_coverage_raster`` shows that the decided samples get the query's
       answer).
    3. If the field has mobiles, the samples the stationary disks leave
       uncovered are kept and ordered by column (numpy's stable sort of
       16-bit keys is a radix sort).
    4. Each mobile disk is tested only on the contiguous kept samples of its
       column run (``_disk_runs`` shows that no sample outside the run can
       pass): the staying disks once, then the leaving and the arriving
       ones.
    """
    if samples <= 0:
        raise InvalidInputError(f"sample count must be > 0, got {samples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if field.area <= 0.0:
        raise InvalidInputError("field has zero area")
    moves = moves or {}
    radius = field.sensing_radius
    tree = None
    if field.stationary:
        tree = cKDTree([[s.position.x, s.position.y] for s in field.stationary])
    raster = _coverage_raster(tree, radius, field.width, field.height, samples)
    inv_h = 1.0 / raster.h
    staying, leaving, arriving = (
        _disk_runs(disks, inv_h, raster.nx)
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
        if tree is None:
            covered = np.zeros(len(pts), dtype=bool)
        else:
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

