"""Monte-Carlo and grid estimator tests."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import inf, nan, nextafter, pi, sqrt

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fields import make_field, triangle_from_vertices
from oracles import grid_region_uncovered, triangle_disks_covered_area
from tricover import (
    InconsistentInputError,
    InvalidInputError,
    Point,
    mc_coverage_fraction,
)
from tricover import oracle
from tricover.oracle import (
    _COVERED,
    _HALF_DIAGONAL,
    _SHARED,
    _STAMP_PAIRS,
    _UNCOVERED,
    MC_CHUNK,
    _columns,
    _Grid,
    _layout,
    _mobile_masks,
    _raster_layout,
    _reach,
    _stamp,
    _stationary_covered,
    _union,
    _windows,
)


def tri(*pts):
    return triangle_from_vertices(*(Point(*p) for p in pts))


# --- mc_coverage_fraction -------------------------------------------------------


def test_mc_quarter_disk_golden():
    # unit square, one sensor at the origin corner with radius 1: pi/4 covered
    field = make_field(1.0, 1.0, 1.0, [(0, 0.0, 0.0)])
    est = mc_coverage_fraction(field, 10**6, seed=1)
    assert abs(est.before - pi / 4) <= 3 * est.half_width
    assert est.after == est.before
    assert est.samples == 10**6
    assert est.seed == 1


def test_mc_fully_covered_is_exactly_one():
    field = make_field(2.0, 2.0, 5.0, [(0, 1.0, 1.0)])
    est = mc_coverage_fraction(field, 10**4, seed=3)
    assert est.before == 1.0


def test_mc_no_sensors_is_exactly_zero():
    field = make_field(2.0, 2.0, 1.0, [])
    est = mc_coverage_fraction(field, 10**4, seed=3)
    assert est.before == 0.0
    _, code = _verify_raster(np.empty((0, 2)), 1.0, 2.0, 2.0, 10**4)
    assert np.all(code == _UNCOVERED)


def test_mc_mobile_radii_respected():
    # mobile sensor with its own (larger) radius dominating a small field
    field = make_field(2.0, 2.0, 0.01, [(0, 0.0, 0.0)], [(1, 1.0, 1.0, 5.0)])
    est = mc_coverage_fraction(field, 10**4, seed=5)
    assert est.before == 1.0


def test_mc_same_seed_bitwise_identical():
    field = make_field(10.0, 7.0, 2.0, [(0, 2.0, 2.0), (1, 7.0, 5.0)])
    a = mc_coverage_fraction(field, 10**5, seed=42)
    b = mc_coverage_fraction(field, 10**5, seed=42)
    assert a == b
    c = mc_coverage_fraction(field, 10**5, seed=43)
    assert c.before != a.before


def test_mc_half_width_shrinks_with_samples():
    field = make_field(4.0, 4.0, 1.0, [(0, 1.0, 1.0)])
    small = mc_coverage_fraction(field, 10**4, seed=2)
    large = mc_coverage_fraction(field, 10**6, seed=2)
    assert large.half_width < small.half_width


def test_mc_rejects_bad_sample_count():
    field = make_field(1.0, 1.0, 1.0, [(0, 0.5, 0.5)])
    with pytest.raises(InvalidInputError):
        mc_coverage_fraction(field, 0, seed=1)


def _draw(field, samples, seed):
    # mc_coverage_fraction's samples, in one draw
    pts = np.random.default_rng(seed).random((samples, 2))
    pts[:, 0] *= field.width
    pts[:, 1] *= field.height
    return pts


def _unchunked_hits(field, samples, seed, moves):
    # One draw of all samples, brute-force distances: the estimator's
    # definition without its chunking or kd-tree.
    pts = _draw(field, samples, seed)

    def in_disk(center, radius):
        d2 = (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2
        return d2 <= radius * radius

    covered = np.zeros(samples, dtype=bool)
    for s in field.stationary:
        covered |= in_disk(s.position, field.sensing_radius)
    before, after = covered.copy(), covered.copy()
    for m in field.mobile:
        before |= in_disk(m.position, m.radius)
        after |= in_disk(moves.get(m.id, m.position), m.radius)
    return int(before.sum()), int(after.sum())


@pytest.mark.parametrize(
    "samples", [MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 3]
)
def test_mc_chunking_matches_one_draw(samples):
    field = make_field(
        10.0, 8.0, 1.5,
        [(0, 2.0, 2.0), (1, 7.0, 5.5), (2, 4.0, 6.0)],
        [(3, 9.0, 1.0, 2.0), (4, 0.5, 7.5, 1.0)],
    )
    moves = {3: Point(5.0, 4.0)}
    est = mc_coverage_fraction(field, samples, seed=17, moves=moves)
    hits_before, hits_after = _unchunked_hits(field, samples, 17, moves)
    assert est.before == hits_before / samples
    assert est.after == hits_after / samples
    assert est.after > est.before


def test_mc_moves_match_hand_moved_field():
    # mobile 3 moves, mobile 4 "moves" onto its own position, mobile 5 stays
    stationary = [(0, 2.0, 2.0), (1, 7.0, 5.5)]
    field = make_field(
        10.0, 8.0, 1.5, stationary,
        [(3, 9.0, 1.0, 2.0), (4, 0.5, 7.5, 1.0), (5, 5.0, 0.5, 1.2)],
    )
    moved = make_field(
        10.0, 8.0, 1.5, stationary,
        [(3, 4.0, 6.0, 2.0), (4, 0.5, 7.5, 1.0), (5, 5.0, 0.5, 1.2)],
    )
    moves = {3: Point(4.0, 6.0), 4: Point(0.5, 7.5)}
    est = mc_coverage_fraction(field, 10**5, seed=23, moves=moves)
    assert est.before == mc_coverage_fraction(field, 10**5, seed=23).before
    assert est.after == mc_coverage_fraction(moved, 10**5, seed=23).before
    assert est.after != est.before


def test_mc_mobiles_only_field():
    field = make_field(4.0, 4.0, 1.0, [], [(0, 0.0, 0.0, 1.0), (1, 4.0, 4.0, 1.0)])
    est = mc_coverage_fraction(field, 10**5, seed=29, moves={0: Point(2.0, 2.0)})
    assert est.before == _unchunked_hits(field, 10**5, 29, {})[0] / 10**5
    # two corner quarter-disks before; one quarter and one whole disk after
    assert abs(est.before - (pi / 2) / 16) <= 3 * est.half_width
    assert abs(est.after - (5 * pi / 4) / 16) <= 3 * est.half_width


# A 10 x 8 field with two mobiles, 3 and 4, for the move-map checks.
MOVE_FIELD = make_field(
    10.0, 8.0, 1.5, [(0, 2.0, 2.0), (1, 7.0, 5.5)], [(3, 9.0, 1.0, 2.0), (4, 0.5, 7.5, 1.0)]
)


# Targets that are not finite, or lie an ulp outside a side of MOVE_FIELD.
BAD_TARGETS = [
    (nan, 1.0), (1.0, nan), (inf, 1.0), (-inf, 1.0), (1.0, inf), (1.0, -inf), (1e300, 1.0),
    (nextafter(0.0, -inf), 1.0), (nextafter(10.0, inf), 1.0),
    (1.0, nextafter(0.0, -inf)), (1.0, nextafter(8.0, inf)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "moves, kind",
    [({5: Point(1.0, 1.0)}, InconsistentInputError), ({0: (1.0, 1.0)}, InconsistentInputError)]
    + [({3: Point(*t)}, InvalidInputError) for t in BAD_TARGETS],
)
def test_mc_refuses_bad_moves_before_drawing(moves, kind, monkeypatch):
    # An unknown id, or a stationary sensor's, is inconsistent-input, and a
    # bad target invalid-input, raised before the generator is made and
    # without a numeric warning.
    def no_draw(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(kind):
        mc_coverage_fraction(MOVE_FIELD, 1000, seed=1, moves=moves)


# the four corners of MOVE_FIELD, then a point on each side
@pytest.mark.parametrize(
    "target",
    [(0.0, 0.0), (10.0, 0.0), (0.0, 8.0), (10.0, 8.0), (0.0, 3.0), (10.0, 5.0), (4.0, 0.0), (6.0, 8.0)],
)
def test_mc_moves_onto_the_field_corners_and_edges(target):
    # mobile 3 moves to a Point, mobile 4 to the same place as a plain tuple
    moves = {3: Point(*target), 4: target}
    samples = MC_CHUNK + 7
    est = mc_coverage_fraction(MOVE_FIELD, samples, seed=53, moves=moves)
    hits_before, hits_after = _unchunked_hits(MOVE_FIELD, samples, 53, moves)
    assert est.before == hits_before / samples
    assert est.after == hits_after / samples


def _full_scan(pts, disk):
    (cx, cy), radius = disk
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    return dx * dx + dy * dy <= radius * radius


def _staying(disks, grid):
    # the windows on grid of disks that all count before and after the moves
    flags = np.ones(len(disks), dtype=bool)
    return _windows(disks, flags, flags, grid)


def _one_disk(disk, h, nx, ny):
    # one staying disk's windows on a raster of nx by ny cells of side h
    (cx, cy), r = disk
    return _staying(np.array([(cx, cy, r)]), _Grid(h, nx, ny))


def _cell_roles(windows, cells):
    # which cells lie in some segment's inner interval, and which in some
    # segment's edge cells
    inner = np.zeros(cells, dtype=bool)
    edge = np.zeros(cells, dtype=bool)
    for lo, a, b, hi in zip(*(v.tolist() for v in (windows.lo, windows.a, windows.b, windows.hi))):
        inner[a:b] = True
        edge[lo:a] = edge[b:hi] = True
    return inner, edge


def _window_mask(pts, disk, h, n, transposed=False):
    # The estimator's mobile pass for one disk on a raster of side h with n
    # columns and MC_CHUNK // n rows (n rows and MC_CHUNK // n columns,
    # with x and y swapped in the points and the centre, if transposed).
    # Only the points of the raster's field are passed, as the estimator
    # draws no other; returns which points those are, their mask in their
    # given order, and how many were marked as inner and how many tested.
    (cx, cy), r = disk
    nx, ny = n, MC_CHUNK // n
    if transposed:
        pts, cx, cy, nx, ny = pts[:, ::-1], cy, cx, ny, nx
    inside = ((pts >= 0.0) & (pts <= (nx * h, ny * h))).all(axis=1)
    pts = np.ascontiguousarray(pts[inside])
    windows = _one_disk((Point(cx, cy), r), h, nx, ny)
    key = _columns(pts[:, 1], 1.0 / h, ny).astype(np.intp) * nx + _columns(pts[:, 0], 1.0 / h, nx)
    order = np.argsort(key, kind="stable")
    before, after = _mobile_masks(pts[order], key[order].astype(np.uint16), windows)
    assert np.array_equal(before, after)
    mask = np.empty(len(pts), dtype=bool)
    mask[order] = before
    inner, edge = _cell_roles(windows, nx * ny)
    return inside, mask, int(inner.take(key).sum()), int(edge.take(key).sum())


def _assert_window_masks(pts, disk, layouts):
    # every layout, in both orientations, gives the full scan's mask on the
    # points of its field; returns which points some layout tested, and
    # how many points were marked as inner and how many tested in all
    full = _full_scan(pts, disk)
    tested = np.zeros(len(pts), dtype=bool)
    inner = edge = 0
    for h, n in layouts:
        for transposed in (False, True):
            inside, mask, i, e = _window_mask(pts, disk, h, n, transposed)
            assert np.array_equal(mask, full[inside]), (h, n, transposed)
            tested |= inside
            inner, edge = inner + i, edge + e
    return tested, inner, edge


# Column layouts (h, n): a few wide columns, fine columns over part of the
# points, columns about as wide as the disks, and the widest raster. Each
# raster has MC_CHUNK // n rows, and is also tested transposed.
RUN_LAYOUTS = [(1.0, 8), (0.0625, 17), (1e-3, MC_CHUNK), (0.3, 1000), (1e6 / 65535.5, MC_CHUNK)]


def _near(v):
    return [nextafter(nextafter(v, -inf), -inf), nextafter(v, -inf), v,
            nextafter(v, inf), nextafter(nextafter(v, inf), inf)]


# Disks with exact and inexact ends cx +/- r, one at the field corner, and
# two near x = 1e6 whose radius times 1e-9 is below half the spacing of
# floats there: cx + r rounds down, and the point at the rounded end lies
# inside the disk.
BAND_DISKS = [
    (Point(0.5, 0.5), 0.25),
    (Point(0.3, 0.7), 0.1),
    (Point(0.0, 0.0), 3.16),
    (Point(7.1, 3.3), 3.16),
    (Point(1e6 + 0.37, 2.0), 0.017),
    (Point(1e6 - 0.21, 5.0), 0.007),
]


def _square_layouts(pts):
    # square rasters of 16 x 16 and 256 x 256 cells whose fields hold every
    # point of non-negative coordinates
    side = float(pts.max())
    return [(nextafter(side / n, inf), n) for n in (16, 256)]


def _boundary_points(disk):
    (cx, cy), r = disk
    # the circle, the centre and the window ends fl(cx -/+ _reach(r, h)) of every layout
    ends = [cx - r, cx + r, cx]
    ends += [cx + s * _reach(r, h) for h, _ in RUN_LAYOUTS for s in (-1.0, 1.0)]
    xs = [x for end in ends for x in _near(end)]
    ys = [y for end in (cy - r, cy + r, cy) for y in _near(end)]
    # one ulp inside and outside the circle on its diagonals
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            xs += _near(cx + sx * r / sqrt(2.0))
            ys += _near(cy + sy * r / sqrt(2.0))
    return xs, ys


@pytest.mark.parametrize("disk", BAND_DISKS, ids=lambda d: f"cx={d[0].x}-r={d[1]}")
def test_band_mask_equals_full_scan_at_the_boundary(disk):
    (cx, cy), r = disk
    xs, ys = _boundary_points(disk)
    pts = np.array([(x, y) for x in sorted(set(xs)) for y in sorted(set(ys))])
    full = _full_scan(pts, disk)
    tested, inner, edge = _assert_window_masks(pts, disk, RUN_LAYOUTS + _square_layouts(pts))
    assert tested[(pts >= 0.0).all(axis=1)].all()
    # a disk near x = 1e6 is smaller than every cell of a raster that holds it
    assert edge > 0 and (inner > 0) == (cx < 1e6 - 1.0)
    # the points on the line y = cy reach past the circle on both sides
    axis = pts[:, 1] == cy
    assert full[axis].any() and not full[axis].all()
    assert pts[axis, 0].min() < cx - r and pts[axis, 0].max() > cx + r


def _window_ends(disk, h, transposed):
    # the first and last column of the disk's window on a raster of one
    # row of MC_CHUNK columns of side h, or its first and last row on the
    # transposed raster
    (cx, cy), r = disk
    if transposed:
        windows = _one_disk((Point(cy, cx), r), h, 1, MC_CHUNK)
        return int(windows.lo[0]), int(windows.lo[-1])
    windows = _one_disk(disk, h, MC_CHUNK, 1)
    return int(windows.lo[0]), int(windows.hi[0]) - 1


@pytest.mark.parametrize("disk", BAND_DISKS, ids=lambda d: f"cx={d[0].x}-r={d[1]}")
def test_column_run_equals_full_scan_with_its_ends_on_column_edges(disk):
    # Rasters whose column edge k * h lies within an ulp or two of a window
    # end fl(cx -/+ _reach(r, h)), as x * (1/h) rounds, with points at both
    # ends and at the edges next to them; the window must end in the column
    # whose edge lies on the reach, and so must the rows of the transposed
    # raster. The reach r * (1 + 1e-9) + c * h, with c the widened half
    # diagonal, puts the edge k * h on the end cx -/+ reach at
    # h = (cx -/+ r * (1 + 1e-9)) / (k +/- c).
    (cx, cy), r = disk
    xs, ys = _boundary_points(disk)
    layouts = []
    on_edge = 0
    for sign in (-1.0, 1.0):
        base = cx + sign * r * (1.0 + 1e-9)
        for k in (1, 2, 3, 7, 100, 4097) if base > 0.0 else ():
            for h in _near(base / (k - sign * _HALF_DIAGONAL)):
                end = cx + sign * _reach(r, h)
                if end * (1.0 / h) == k:
                    for transposed in (False, True):
                        assert _window_ends(disk, h, transposed)[sign > 0] == k
                    on_edge += 1
                layouts += [(h, k), (h, k + 1), (h, MC_CHUNK)]
                xs += _near(end) + [x for i in (k - 1, k, k + 1) for x in _near(i * h)]
    assert on_edge > 0
    pts = np.array([(x, y) for x in sorted(set(xs)) for y in sorted(set(ys))])
    full = _full_scan(pts, disk)
    assert full.any() and not full.all()
    tested, inner, edge = _assert_window_masks(pts, disk, layouts + _square_layouts(pts))
    assert tested[(pts >= 0.0).all(axis=1)].all()
    assert edge > 0 and (inner > 0) == (cx < 1e6 - 1.0)


@pytest.mark.parametrize("side", [2.0**-200, 2.0**200], ids=["side=2^-200", "side=2^200"])
@pytest.mark.parametrize("radius", [2.0**-200, 2.0**200], ids=["r=2^-200", "r=2^200"])
def test_column_run_equals_full_scan_at_the_length_bounds(side, radius):
    # The smallest and largest lengths a field accepts: on the widest
    # raster of a field of this side, (cx +/- reach) * (1/h) reaches 2**416
    # and -2**416, far outside every int type, or falls below one column.
    h, nx = side / MC_CHUNK, MC_CHUNK
    xs = [x for v in (0.0, h, 0.5 * side, side - h, side) for x in _near(v)]
    ys = [y for v in (0.0, 0.5 * side, side) for y in _near(v)]
    for (cx, cy) in [(0.0, 0.0), (0.5 * side, 0.5 * side), (side, 0.5 * side)]:
        disk = (Point(cx, cy), radius)
        pts = np.array(sorted({(x, y) for x in xs + _near(cx - radius) + _near(cx + radius)
                               for y in ys + _near(cy + radius)}))
        assert ((cx + radius) * (1.0 / h) > 2.0**64) == (radius > side)
        full = _full_scan(pts, disk)
        assert full.any()
        # the widest raster, and a square one that holds the field
        tested, _, _ = _assert_window_masks(pts, disk, [(h, nx), (side / 256, 256)])
        assert tested[(pts >= 0.0).all(axis=1) & (pts <= side).all(axis=1)].all()


def _stamp_covers(windows, grid, disks):
    # per segment, which columns of its row pass the stamp's covered test
    # against its disk, from the stamp's expressions, cell by cell
    h, nx = grid.h, grid.nx
    delta = h * _HALF_DIAGONAL
    cx = (np.arange(nx) + 0.5) * h
    out = []
    for g, k in enumerate(windows.disk.tolist()):
        sx, sy, r = disks[k]
        dx = cx - sx
        dy = (int(windows.lo[g]) // nx + 0.5) * h - sy
        out.append(np.sqrt(dx * dx + dy * dy) + delta <= r * (1.0 - 1e-9))
    return out


def test_inner_intervals_hold_only_cells_the_stamp_covers():
    # Every cell of an inner interval passes the stamp's covered test, the
    # step the proof rests on, and a row whose cells pass it gets an inner
    # interval. Half of the disks put the centre of a proposed first or
    # last cell at the edge t of the closed form (dy = 0 on the unit
    # raster), where the test can fail by an ulp and the interval must then
    # be refused.
    rng = np.random.default_rng(61)
    grid = _Grid(1.0, 64, 64)
    disks = [tuple(d) for d in rng.uniform((0.0, 0.0, 0.2), (64.0, 64.0, 9.0), (300, 3)).tolist()]
    for r, side in zip(rng.uniform(1.5, 9.0, 300).tolist(), [-1.0, 1.0] * 150):
        k = int(rng.integers(20, 40))
        t = r * (1.0 - 1e-9) - _HALF_DIAGONAL
        disks.append(((k + 0.5) + side * sqrt(t * t), k - 9.5, r))
    disks = np.array(disks)
    windows = _staying(disks, grid)
    refused = []
    for g, passes in enumerate(_stamp_covers(windows, grid, disks)):
        base = int(windows.lo[g]) // grid.nx * grid.nx
        lo, a, b, hi = (int(v[g]) - base for v in (windows.lo, windows.a, windows.b, windows.hi))
        assert 0 <= lo <= a <= b <= hi <= grid.nx and (a < b or a == b == hi)
        inner = np.zeros(grid.nx, dtype=bool)
        inner[a:b] = True
        assert not (inner & ~passes).any(), g
        # the covered cells of a row are a run inside the window
        run = np.flatnonzero(passes)
        assert len(run) == 0 or (lo <= run[0] and run[-1] < hi and len(run) == run[-1] - run[0] + 1)
        if len(run) > 0 and a == b:
            refused.append(int(windows.disk[g]))
    # only rows built to put an end cell on the edge are refused, some of them
    assert 0 < len(refused) < 300 and min(refused) >= 300


@pytest.mark.parametrize(
    "intervals, n",
    [
        ([], 5),
        ([(0, 0), (3, 3), (5, 5)], 5),
        ([(0, 5)], 5),
        ([(4, 5), (2, 5), (5, 5)], 5),
        ([(1, 4), (2, 6), (5, 7)], 9),
        ([(0, 9), (2, 4), (3, 3), (2, 4)], 9),
        ([(3, 4), (4, 6), (6, 7)], 8),
        ([], 0),
    ],
)
def test_union_equals_a_brute_force_scan(intervals, n):
    # empty intervals, intervals that end on n, overlapping, nested and
    # repeated ones, and runs that touch end to start
    lo, hi = (np.array([iv[k] for iv in intervals], dtype=np.intp) for k in (0, 1))
    expected = [any(a <= i < b for a, b in intervals) for i in range(n)]
    assert _union(lo, hi, n).tolist() == expected


# Disks that leave inner intervals on the unit raster, on a raster of
# 0.3-sided cells, and on a raster whose cells are a thousandth of the
# radius; the windows of the last two reach past the field's edges.
INNER_DISKS = [
    (Point(4.3, 3.7), 2.5, 1.0, 16),
    (Point(0.45, 19.0), 3.16, 0.3, 256),
    (Point(1.0, 0.5), 1.0, 1e-3, 256),
]


@pytest.mark.parametrize("disk, h, n", [((c, r), h, n) for c, r, h, n in INNER_DISKS])
def test_window_mask_equals_full_scan_at_the_inner_interval_edges(disk, h, n):
    # points within a few ulps of the edges of each inner interval's end
    # cells and of its row, in both orientations
    (cx, cy), r = disk
    for transposed in (False, True):
        nx, ny = (MC_CHUNK // n, n) if transposed else (n, MC_CHUNK // n)
        centre = Point(cy, cx) if transposed else Point(cx, cy)
        windows = _one_disk((centre, r), h, nx, ny)
        rows = np.flatnonzero(windows.a < windows.b)
        assert len(rows) > 0
        pts = []
        for g in rows.tolist():
            j, a = divmod(int(windows.a[g]), nx)
            b = int(windows.b[g]) - j * nx
            xs = [x for i in (a, a + 1, b - 1, b) for x in _ulp_steps(i * h)]
            ys = [y for i in (j, j + 1) for y in _ulp_steps(i * h)] + [(j + 0.5) * h]
            pts += [(y, x) if transposed else (x, y) for x in xs for y in ys]
        pts = np.array(pts)
        tested, inner, edge = _assert_window_masks(pts, disk, [(h, n)])
        assert tested[((pts >= 0.0) & (pts <= n * h)).all(axis=1)].all()
        assert inner > 0 and edge > 0


def test_band_masks_match_one_draw_on_a_crowded_field():
    rng = np.random.default_rng(5)
    width, height = 30.0, 20.0
    mobile = [
        (10 + i, float(rng.uniform(0, width)), float(rng.uniform(0, height)),
         float(rng.choice([0.3, 1.0, 2.5, 6.0])))
        for i in range(39)
    ]
    # disks crossing the field edges, and one wider than the field
    mobile += [(49, 0.0, 10.0, 3.0), (50, 30.0, 0.0, 4.0), (51, 0.0, 0.0, 18.0)]
    field = make_field(
        width, height, 2.0, [(0, 5.0, 5.0), (1, 25.0, 15.0), (2, 12.0, 18.0)], mobile
    )
    moves = {
        i: Point(float(rng.uniform(0, width)), float(rng.uniform(0, height)))
        for i in range(10, 50, 2)
    }
    moves[51] = Point(width, height)
    for samples in (MC_CHUNK + 1, 3 * MC_CHUNK + 5):
        est = mc_coverage_fraction(field, samples, seed=31, moves=moves)
        hits_before, hits_after = _unchunked_hits(field, samples, 31, moves)
        assert est.before == hits_before / samples
        assert est.after == hits_after / samples
        assert 0.0 < est.before < 1.0 and 0.0 < est.after < 1.0
        assert est.after != est.before


def test_gap_masks_match_one_draw_where_stationary_sensors_crowd():
    # 300 sites on 50 x 50 at the density-scaled radius cover most samples,
    # so the mobiles are tested on the few the sites leave uncovered. The
    # mobile disks sit in covered, mixed and uncovered raster cells and
    # across the field edges and corners; half of them move.
    rng = np.random.default_rng(41)
    side, radius = 50.0, 5.0 * sqrt(50.0 / 300)
    stationary = _random_sensors(43, 300, side, side)
    samples = 3 * MC_CHUNK + 5
    grid, code = _verify_raster(np.array([(x, y) for _, x, y in stationary]), radius, side, side, samples)
    centres = []
    for where in (code == _COVERED, (code >= 0) | (code == _SHARED), code == _UNCOVERED):
        cells = np.flatnonzero(where)
        assert len(cells) >= 10
        for c in rng.choice(cells, size=10, replace=False):
            j, i = divmod(int(c), grid.nx)
            centres.append(((i + 0.5) * grid.h, (j + 0.5) * grid.h))
    centres += [(0.0, 20.0), (side, 31.0), (12.0, 0.0), (37.0, side),
                (0.0, 0.0), (side, side), (0.0, side), (side, 0.0), (0.1, 44.0), (49.95, 3.0)]
    radii = [0.3, 1.0, radius, 4.0, 0.05]
    mobile = [(1000 + k, x, y, radii[k % len(radii)]) for k, (x, y) in enumerate(centres)]
    field = make_field(side, side, radius, stationary, mobile)
    movers = [m[0] for m in mobile[::2]]
    moves = {i: Point(*target) for i, target in zip(movers, centres[1::2])}
    assert len(mobile) == 40 and len(moves) == 20
    for n in (MC_CHUNK + 1, samples):
        est = mc_coverage_fraction(field, n, seed=47, moves=moves)
        hits_before, hits_after = _unchunked_hits(field, n, 47, moves)
        stationary_only = _unchunked_hits(make_field(side, side, radius, stationary), n, 47, {})
        assert stationary_only[0] / n > 0.75
        assert est.before == hits_before / n
        assert est.after == hits_after / n
        assert stationary_only[0] < hits_before != hits_after


# --- stationary coverage raster ------------------------------------------------


def _verify_raster(sites, radius, width, height, samples, radii=()):
    # the layout and the codes mc_coverage_fraction builds for these
    # stationary sites and mobile disks of radii ``radii``
    grid = _raster_layout(width, height, samples, len(sites), radius, np.array(radii, dtype=float))
    return grid, _stamp(grid, sites, radius)


def _plain_covered(tree, pts, radius):
    dist, _ = tree.query(pts, distance_upper_bound=nextafter(radius, inf))
    return dist <= radius


def _raster_matches_plain_query(sensors, radius, layout, pts):
    """The answer of ``layout`` stamped by ``sensors`` for ``pts`` equals the plain query's; returns the codes."""
    sites = np.array(sensors, dtype=float)
    tree = cKDTree(sites)
    code = _stamp(layout, sites, radius)
    pts = np.array(pts, dtype=float)
    got = _stationary_covered(pts, _cells(layout, pts), sites, tree, code, radius)
    assert np.array_equal(got, _plain_covered(tree, pts, radius))
    return code


def _cell_points(h, i, j, width, height):
    """Corners and edge midpoints of cell (i, j), each one and two ulps off, in the field."""
    xs = [x for v in (i * h, (i + 0.5) * h, (i + 1) * h) for x in _near(v)]
    ys = [y for v in (j * h, (j + 0.5) * h, (j + 1) * h) for y in _near(v)]
    return [(x, y) for x in xs for y in ys if 0.0 <= x <= width and 0.0 <= y <= height]


def _ulp_steps(v, k=3):
    out = [v]
    up = down = v
    for _ in range(k):
        up, down = nextafter(up, inf), nextafter(down, -inf)
        out += [up, down]
    return out


def _code_of(code, layout, i, j):
    return int(code[j * layout.nx + i])


# An 8 x 8 field and 64 cells give an 8 x 8 raster of unit cells.
UNIT = dict(width=8.0, height=8.0)
UNIT_LAYOUT = _layout(64, **UNIT)


@pytest.mark.parametrize("offset", [2.0, 2.0**24 + 3.0, 2.0**26 + 5.0])
@pytest.mark.parametrize("side", ["covered", "uncovered"])
def test_raster_matches_plain_query_at_the_thresholds(offset, side):
    # One sensor on the diagonal through the centre of cell (5, 5), so that
    # a corner of the cell lies as far from it, or as near to it, as any
    # point of the cell can. The radius runs over a few ulps around the
    # thresholds of the raster's rule, and around the same thresholds
    # without the margins on R; far sensors make the rounding of R-sized
    # distances exceed the widening of δ.
    h = 1.0
    c = 5.5
    sensor = c - offset if side == "covered" else c + offset
    d0 = sqrt(2.0) * offset
    tree = cKDTree([(sensor, sensor)])
    assert tree.query([(c, c)])[0][0] == d0
    delta = h * _HALF_DIAGONAL
    if side == "covered":
        bare = d0 + delta
        radii = _ulp_steps(bare) + _ulp_steps(bare / (1.0 - 1e-9))
    else:
        bare = d0 - delta
        radii = _ulp_steps(bare) + _ulp_steps(bare / (1.0 + 1e-9))
    pts = _cell_points(h, 5, 5, UNIT["width"], UNIT["height"])
    codes = set()
    for radius in radii:
        # points at sensor distance R * (1 +/- k * 2**-53) on the diagonal
        for scale in _ulp_steps(radius / sqrt(2.0)):
            t = sensor + scale if side == "covered" else sensor - scale
            if 0.0 <= t <= UNIT["width"]:
                pts.append((t, t))
        code = _raster_matches_plain_query([(sensor, sensor)], radius, UNIT_LAYOUT, pts)
        codes.add(_code_of(code, UNIT_LAYOUT, 5, 5))
    # the one sensor's index where it reaches the cell without deciding it
    assert UNIT_LAYOUT.h == h
    assert codes == {0, _COVERED if side == "covered" else _UNCOVERED}


def test_raster_matches_plain_query_one_cell_off():
    # 10000 cells on a 3 x 3 field give a 100 x 100 raster whose side h
    # rounds down, so the field corner lies outside the last cell by about
    # 33 ulps of h on each axis, and is put in that cell. A sensor at the
    # corner and a tiny radius: the corner is covered, and the cell is
    # decided only if δ is wide enough to reach past the corner.
    width = height = 3.0
    layout = _layout(10000, width, height)
    code = _raster_matches_plain_query(
        [(width, height)], 1e-100, layout,
        _cell_points(0.03, 99, 99, width, height) + [(width, height)],
    )
    assert layout.nx == layout.ny == 100
    assert Fraction(width) > 100 * Fraction(layout.h)
    assert _code_of(code, layout, 99, 99) == 0
    assert _code_of(code, layout, 97, 97) == _UNCOVERED


@pytest.mark.parametrize("radius", [0.3, 0.9, 1.7, 3.5])
def test_raster_matches_plain_query_on_cell_edges_and_corners(radius):
    # sensors on cell corners, edges and centres of the unit raster, and at
    # random points; every corner and edge midpoint of every cell, an ulp
    # or two off
    rng = np.random.default_rng(11)
    sensors = [(1.0, 1.0), (3.0, 2.5), (5.5, 5.5), (8.0, 0.0), (6.0, 8.0)]
    sensors += [tuple(p) for p in rng.uniform(0.0, 8.0, size=(6, 2))]
    pts = [p for i in range(8) for j in range(8) for p in _cell_points(1.0, i, j, 8.0, 8.0)]
    # points at sensor distance R * (1 +/- k * 2**-53) along the axes
    for sx, sy in sensors:
        for r in _ulp_steps(radius):
            pts += [(sx + r, sy), (sx - r, sy), (sx, sy + r), (sx, sy - r)]
    pts = [(x, y) for x, y in pts if 0.0 <= x <= 8.0 and 0.0 <= y <= 8.0]
    code = _raster_matches_plain_query(sensors, radius, UNIT_LAYOUT, pts)
    decided = np.count_nonzero((code == _COVERED) | (code == _UNCOVERED))
    assert decided > 0


def _stamped_pairs(grid, sites, radius):
    # The (site, cell) pairs the stamp visits: each site's window, from the
    # column (row) of its coordinate minus the reach to that of it plus the
    # reach.
    inv_h = 1.0 / grid.h
    reach = radius * (1.0 + 1e-9) + grid.h * _HALF_DIAGONAL
    spans = [
        _columns(v + reach, inv_h, n).astype(np.int64) - _columns(v - reach, inv_h, n) + 1
        for v, n in ((sites[:, 0], grid.nx), (sites[:, 1], grid.ny))
    ]
    return int(np.sum(spans[0] * spans[1]))


@pytest.mark.parametrize(
    "width, height, samples",
    [(100.0, 100.0, 10**7), (1000.0, 1.0, 10**7), (1.0, 1000.0, 10**7),
     (1e6, 1e-3, 10**7), (100.0, 100.0, 8 * MC_CHUNK - 1), (100.0, 100.0, 2 * MC_CHUNK - 1),
     (5.0, 3.0, 7)],
)
def test_raster_size_is_bounded_and_covers_the_field(width, height, samples):
    one = np.array([(0.5 * width, 0.5 * height)])
    many = np.random.default_rng(3).random((1000, 2)) * (width, height)
    diagonal = sqrt(width * width + height * height)
    # no mobiles, a few small ones, and many that reach across the field
    mobiles = [np.empty((0, 3)), np.array([(0.0, 0.0, 1.0), (width, height, 0.5 * diagonal)])]
    mobiles += [
        np.column_stack((many[:k], np.full(k, r)))
        for k, r in ((1000, 1.0), (1000, diagonal), (3, 2.0**200))
    ]
    for sites in (one, many):
        for radius in (1.0, 10.0 * diagonal, 2.0**200, 2.0**-200):
            for disks in mobiles:
                grid, code = _verify_raster(sites, radius, width, height, samples, disks[:, 2])
                assert code.size == grid.nx * grid.ny
                # the cell cap, one cell per two samples, and the stamp's pair budget
                assert 1 <= code.size <= min(MC_CHUNK, max(1, samples // 2))
                pairs = _stamped_pairs(grid, sites, radius)
                assert pairs <= max(len(sites), min(_STAMP_PAIRS, 2 * samples))
                # the mobile windows' rows
                assert len(_staying(disks, grid).disk) <= max(MC_CHUNK, len(disks))
                assert grid.nx * grid.h >= width * (1.0 - 2.0**-52)
                assert grid.ny * grid.h >= height * (1.0 - 2.0**-52)


def _mobile_disks(field, moves):
    # mc_coverage_fraction's disks (x, y, r), and whether each counts before
    # and after the moves: the staying mobiles, then the moved ones where
    # they were and where they go
    moved = [m for m in field.mobile if m.id in moves]
    disks = [(m.position.x, m.position.y, m.radius) for m in field.mobile if m.id not in moves]
    disks += [(m.position.x, m.position.y, m.radius) for m in moved]
    disks += [(moves[m.id][0], moves[m.id][1], m.radius) for m in moved]
    staying = len(field.mobile) - len(moved)
    before = [True] * (staying + len(moved)) + [False] * len(moved)
    after = [True] * staying + [False] * len(moved) + [True] * len(moved)
    return np.array(disks).reshape(-1, 3), np.array(before), np.array(after)


def test_workload_rasters_do_not_depend_on_the_mobiles(
    workload_scenarios, workload_samples, workload_moves
):
    # the mobile windows' bound leaves the benchmark workloads the raster,
    # and so every stationary decision, they would have without mobiles
    for (name, seed), scenario in sorted(workload_scenarios.items()):
        field, samples = scenario.field, workload_samples[name]
        disks, _, _ = _mobile_disks(field, workload_moves[name, seed])
        args = (field.width, field.height, samples, len(field.stationary), field.sensing_radius)
        with_mobiles = _raster_layout(*args, disks[:, 2])
        without = _raster_layout(*args, np.empty(0))
        assert (with_mobiles.nx, with_mobiles.ny, with_mobiles.h) == (without.nx, without.ny, without.h)
        assert (without.nx, without.ny) == (256, 256), (name, seed)


def _every_site_codes(layout, sites, radius):
    # Each cell's code from every site's distance to its centre, computed
    # with the stamp's expressions, without windows: covered if some site
    # covers it, and otherwise the index of the one site that reaches it,
    # shared if several do, and uncovered if none does.
    cx = (np.arange(layout.nx) + 0.5) * layout.h
    cy = (np.arange(layout.ny) + 0.5) * layout.h
    delta = layout.h * _HALF_DIAGONAL
    dx = cx[:, np.newaxis] - sites[:, 0]
    rows = []
    for y in cy:
        dy = y - sites[:, 1]
        d = np.sqrt(dx * dx + dy * dy)
        covered = (d + delta <= radius * (1.0 - 1e-9)).any(axis=1)
        reach = d - delta < radius * (1.0 + 1e-9)
        count = reach.sum(axis=1)
        one = np.where(count == 1, reach.argmax(axis=1), np.where(count > 1, _SHARED, _UNCOVERED))
        rows.append(np.where(covered, _COVERED, one))
    return np.concatenate(rows)


def _kinds(code):
    # the kinds of cell in a code column, with every one-site code as 0
    return set(np.unique(np.minimum(code, 0)).tolist())


def _grid_sites(layout, width, height, seed, n):
    # sites on cell corners, on cell edge midpoints and on the field
    # corners and edges, then n random ones
    h = layout.h
    xs = range(0, layout.nx + 1, max(3, layout.nx // 7))
    ys = range(0, layout.ny + 1, max(3, layout.ny // 7))
    corners = [(i * h, j * h) for i in xs for j in ys]
    edges = [((i + 0.5) * h, j * h) for i in xs[1::2] for j in ys[::2]]
    edges += [(i * h, (j + 0.5) * h) for i in xs[::2] for j in ys[1::2]]
    field = [(0.0, 0.0), (width, 0.0), (0.0, height), (width, height), (0.5 * width, 0.0), (width, 0.5 * height)]
    pts = [(x, y) for x, y in corners + edges if x <= width and y <= height] + field
    pts += [tuple(p) for p in np.random.default_rng(seed).random((n, 2)) * (width, height)]
    return np.array(pts)


# (name, layout, width, height, radii): the unit raster, with radii at
# multiples of h and an ulp either side; the one-cell-off raster, whose
# last column ends ulps short of the field; a coarse raster of a long
# field; one row of 10000 columns, where a site's window can hold more
# columns than a block; a tall raster, where a block holds many rows of a
# few columns; and radii far above and far below h.
_ONE_OFF = _layout(10000, 3.0, 3.0)
STAMP_FIELDS = [
    ("unit", UNIT_LAYOUT, 8.0, 8.0,
     [r for k in (0.5, 1.0, 2.0, 3.0) for r in _ulp_steps(k, 1)] + [0.3, 1.7, 2.5]),
    ("one-cell-off", _ONE_OFF, 3.0, 3.0,
     [r for k in (1, 2, 7) for r in _ulp_steps(k * _ONE_OFF.h, 1)] + [0.05, 0.111]),
    ("long", _layout(300, 30.0, 2.0), 30.0, 2.0, [0.2, 0.45, 1.3]),
    ("one-row", _layout(10000, 1e4, 1.0), 1e4, 1.0, [0.3, 700.0, 6000.0]),
    ("tall", _layout(4000, 1.0, 400.0), 1.0, 400.0, [0.2, 3.0, 150.0]),
    ("far-above-h", UNIT_LAYOUT, 8.0, 8.0, [20.0, 1e6, 2.0**200]),
    ("far-below-h", _ONE_OFF, 3.0, 3.0, [1e-6, 1e-100, 2.0**-200]),
]


@pytest.mark.parametrize("name, layout, width, height, radii", STAMP_FIELDS, ids=[f[0] for f in STAMP_FIELDS])
def test_stamped_states_equal_every_site_classification(name, layout, width, height, radii):
    seen = set()
    for seed, n in ((7, 5), (8, 60)):
        sites = _grid_sites(layout, width, height, seed, n)
        for radius in radii:
            code = _stamp(layout, sites, radius)
            assert np.array_equal(code, _every_site_codes(layout, sites, radius)), radius
            seen |= _kinds(code)
    assert seen == {_COVERED, _SHARED, 0, _UNCOVERED} or name.startswith("far-")


@pytest.mark.parametrize("radius", [0.05, 0.4, 1.58, 3.16])
def test_stamped_states_equal_every_site_classification_on_budgeted_layouts(radius):
    # the layouts verify picks, on seeded fields of 300 sites
    sites = np.random.default_rng(59).random((300, 2)) * (50.0, 40.0)
    for samples in (2000, 10**5, 10**6):
        grid, code = _verify_raster(sites, radius, 50.0, 40.0, samples)
        assert np.array_equal(code, _every_site_codes(grid, sites, radius))


def _sites_of(field):
    return np.array([[s.position.x, s.position.y] for s in field.stationary]).reshape(-1, 2)


def _cells(grid, pts):
    # each point's cell key row * nx + col, as mc_coverage_fraction computes it
    inv_h = 1.0 / grid.h
    row = _columns(pts[:, 1], inv_h, grid.ny).astype(np.intp)
    return row * grid.nx + _columns(pts[:, 0], inv_h, grid.nx)


def test_mobile_pass_equals_a_full_scan_on_every_workload_draw(
    workload_scenarios, workload_samples, workload_moves
):
    # every sample of verify's draw on each benchmark scenario and its own
    # plan: the samples the stationary disks leave uncovered, kept where a
    # window reaches their cell, get the mask of a test of every disk, and
    # the others lie in no disk
    for (name, seed), scenario in sorted(workload_scenarios.items()):
        field, samples = scenario.field, workload_samples[name]
        moves = workload_moves[name, seed]
        radius, sites = field.sensing_radius, _sites_of(field)
        disks, counts_before, counts_after = _mobile_disks(field, moves)
        grid, code = _verify_raster(sites, radius, field.width, field.height, samples, disks[:, 2])
        pts = _draw(field, samples, seed)
        cell = _cells(grid, pts)
        gap = np.flatnonzero(~_stationary_covered(pts, cell, sites, cKDTree(sites), code, radius))
        pts, cell = pts[gap], cell[gap]
        before = np.zeros(len(pts), dtype=bool)
        after = before.copy()
        for (x, y, r), b, a in zip(disks, counts_before, counts_after):
            hit = _full_scan(pts, (Point(x, y), r))
            before |= hit & b
            after |= hit & a
        windows = _windows(disks, counts_before, counts_after, grid)
        kept = windows.reached.take(cell)
        assert not (before | after)[~kept].any(), (name, seed)
        kept = np.flatnonzero(kept)
        kept = kept[np.argsort(cell[kept], kind="stable")]
        key = cell[kept].astype(np.uint16)
        got = _mobile_masks(pts[kept], key, windows)
        assert np.array_equal(got[0], before[kept]), (name, seed)
        assert np.array_equal(got[1], after[kept]), (name, seed)
        # both the inner marking and the pair test decided samples
        inner, edge = _cell_roles(windows, grid.nx * grid.ny)
        assert np.count_nonzero(inner.take(key)) > 0 and np.count_nonzero(edge.take(key)) > 0


def test_stationary_covered_equals_the_plain_query_on_every_workload_draw(
    workload_scenarios, workload_samples
):
    # every sample of verify's draw on each benchmark scenario, with a
    # share of them in mixed cells that one site alone reaches
    for (name, seed), scenario in sorted(workload_scenarios.items()):
        field, samples = scenario.field, workload_samples[name]
        radius, sites = field.sensing_radius, _sites_of(field)
        tree = cKDTree(sites)
        grid, code = _verify_raster(sites, radius, field.width, field.height, samples)
        pts = _draw(field, samples, seed)
        cell = _cells(grid, pts)
        got = _stationary_covered(pts, cell, sites, tree, code, radius)
        assert np.array_equal(got, _plain_covered(tree, pts, radius)), (name, seed)
        assert np.count_nonzero(code.take(cell) >= 0) > 0, (name, seed)


def test_estimate_does_not_depend_on_the_raster_layout(
    workload_scenarios, workload_moves, monkeypatch
):
    # The proofs of the stamp and of the windows make every count
    # independent of how the cells are laid out: one cell, six, 2500, and
    # the layout the estimator picks give the brute-force counts.
    samples = MC_CHUNK + 5
    picked = oracle._raster_layout
    for name in ("dense-field", "sparse-field", "verify-heavy"):
        field, moves = workload_scenarios[name, 42].field, workload_moves[name, 42]
        hits_before, hits_after = _unchunked_hits(field, samples, 42, moves)
        for cells in (1, 6, 2500, None):
            layout = picked if cells is None else lambda width, height, *_: _layout(cells, width, height)
            monkeypatch.setattr(oracle, "_raster_layout", layout)
            est = mc_coverage_fraction(field, samples, seed=42, moves=moves)
            assert est.before == hits_before / samples, (name, cells)
            assert est.after == hits_after / samples, (name, cells)


class _CountingTree:
    """A cKDTree that counts the points passed to ``query``."""

    def __init__(self, data):
        self.tree = cKDTree(data)
        self.points = 0

    def query(self, x, **kwargs):
        self.points += len(x)
        return self.tree.query(x, **kwargs)


def test_only_samples_in_cells_several_sites_reach_are_queried(monkeypatch):
    made = []

    def counting_tree(data):
        made.append(_CountingTree(data))
        return made[-1]

    monkeypatch.setattr(oracle, "cKDTree", counting_tree)
    crowded = make_field(50.0, 50.0, 5.0 * sqrt(50.0 / 300), _random_sensors(43, 300, 50.0, 50.0))
    lonely = make_field(6.0, 4.0, 1.3, [(0, 2.0, 1.5)])
    samples = 3 * MC_CHUNK + 5
    for field, several in ((crowded, True), (lonely, False)):
        est = mc_coverage_fraction(field, samples, seed=53)
        assert est.before == _unchunked_hits(field, samples, 53, {})[0] / samples
        (tree,) = made
        made.clear()
        # the samples in cells that two or more sites reach without one
        # covering them, from every site
        radius, sites = field.sensing_radius, _sites_of(field)
        layout = _raster_layout(field.width, field.height, samples, len(sites), radius, np.empty(0))
        code = _every_site_codes(layout, sites, radius).take(_cells(layout, _draw(field, samples, 53)))
        assert tree.points == np.count_nonzero(code == _SHARED)
        assert (tree.points > 0) == several and np.count_nonzero(code >= 0) > 0


def _random_sensors(seed, n, width, height):
    rng = np.random.default_rng(seed)
    return [(i, float(rng.uniform(0, width)), float(rng.uniform(0, height))) for i in range(n)]


def _edge_field(name):
    # (field, samples, moves) on which the raster is exercised at an edge;
    # the fields without mobiles also check that skipping the column sort
    # keeps the counts
    if name == "one-stationary":
        field = make_field(6.0, 4.0, 1.3, [(0, 2.0, 1.5)], [(1, 5.0, 3.0, 0.8)])
        return field, 50_000, {1: Point(2.5, 2.0)}
    if name == "radius-wider-than-field":
        return make_field(3.0, 2.0, 7.0, [(0, 3.0, 2.0), (1, 0.0, 1.0)]), 50_000, None
    if name == "radius-far-below-cell":
        # 800 samples and 200 sites: the pair budget leaves 14 x 2 cells of
        # side 1, twenty times R
        return make_field(10.0, 2.0, 0.05, _random_sensors(17, 200, 10.0, 2.0)), 800, None
    if name == "elongated":
        stationary = _random_sensors(19, 300, 1000.0, 1.0)
        field = make_field(1000.0, 1.0, 0.7, stationary, [(300, 10.0, 0.5, 2.0)])
        return field, 200_000, {300: Point(900.0, 0.5)}
    if name == "fewer-than-8-samples":
        return make_field(2.0, 2.0, 0.9, [(0, 0.5, 0.5), (1, 1.5, 1.2)]), 7, None
    if name == "raster-at-cap":
        field = make_field(20.0, 20.0, 1.1, _random_sensors(23, 60, 20.0, 20.0))
        return field, 8 * MC_CHUNK + 9, None
    if name == "1000-mobiles":
        # as verify-heavy, with ten times the mobiles; half of them move
        stationary = _random_sensors(31, 500, 100.0, 100.0)
        mobile = [(1000 + i, x, y, 3.16) for i, x, y in _random_sensors(37, 1000, 100.0, 100.0)]
        moves = {i: Point(x, y) for i, x, y in _random_sensors(41, 1000, 100.0, 100.0)[::2]}
        moves = {1000 + i: target for i, target in moves.items()}
        return make_field(100.0, 100.0, 3.16, stationary, mobile), 100_000, moves
    if name == "stress":
        # 2000 mobiles whose radius is the field's side; half of them move
        return _stress_field()
    if name == "coarse-raster":
        # 2000 sites and 2000 samples: the pair budget leaves 1 x 2 cells
        # of side 100, each mixed and reached by many sites
        stationary = _random_sensors(29, 2000, 100.0, 100.0)
        return make_field(100.0, 100.0, 10.0 * sqrt(50.0 / 2000), stationary), 2000, None
    raise AssertionError(name)


def _stress_field():
    stationary = _random_sensors(43, 50, 100.0, 100.0)
    mobile = [(100 + i, x, y, 100.0) for i, x, y in _random_sensors(47, 2000, 100.0, 100.0)]
    moves = {100 + i: Point(x, y) for i, x, y in _random_sensors(53, 2000, 100.0, 100.0)[::2]}
    return make_field(100.0, 100.0, 1.0, stationary, mobile), 50_000, moves


@pytest.mark.parametrize(
    "name",
    ["one-stationary", "radius-wider-than-field", "radius-far-below-cell", "elongated",
     "fewer-than-8-samples", "raster-at-cap", "coarse-raster", "1000-mobiles", "stress"],
)
def test_mc_with_raster_matches_one_draw_on_edge_fields(name):
    field, samples, moves = _edge_field(name)
    est = mc_coverage_fraction(field, samples, seed=37, moves=moves)
    hits_before, hits_after = _unchunked_hits(field, samples, 37, moves or {})
    assert est.before == hits_before / samples
    assert est.after == hits_after / samples
    assert hits_before > 0


def test_mc_memory_is_bounded_on_the_stress_field():
    # 3000 disks that each reach every row: without the bound on the
    # windows' rows, the segment table alone would take tens of MB
    field, samples, moves = _stress_field()
    mc_coverage_fraction(field, samples, seed=37, moves=moves)
    tracemalloc.start()
    try:
        mc_coverage_fraction(field, samples, seed=37, moves=moves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --- grid_region_uncovered ------------------------------------------------------


def test_grid_no_disks_returns_triangle_area():
    t = tri((0, 0), (2, 0), (0, 2))
    est = grid_region_uncovered(t, [], 256)
    assert est == pytest.approx(t.area, rel=0.02)


def test_grid_fully_covered_returns_zero():
    t = tri((0, 0), (2, 0), (0, 2))
    assert grid_region_uncovered(t, [(Point(0.5, 0.5), 10.0)], 64) == 0.0


def test_grid_degenerate_triangle_is_zero():
    t = tri((0, 0), (1, 1), (2, 2))
    assert grid_region_uncovered(t, [(Point(0, 0), 1.0)], 64) == 0.0


def test_grid_rejects_low_or_fractional_resolution():
    t = tri((0, 0), (2, 0), (0, 2))
    with pytest.raises(InvalidInputError):
        grid_region_uncovered(t, [], 8)
    with pytest.raises(InvalidInputError):
        grid_region_uncovered(t, [], 64.5)


def test_grid_error_decreases_with_resolution():
    rng = np.random.default_rng(13)
    improved = 0
    trials = 20
    for _ in range(trials):
        while True:
            t = tri(*rng.uniform(0.0, 4.0, size=(3, 2)))
            if not t.degenerate and t.area >= 0.05 * max(t.sides) ** 2:
                break
        R = float(rng.uniform(0.3, 0.8)) * max(t.sides)
        disks = [(v, R) for v in t.vertices]
        exact = t.area - triangle_disks_covered_area(t, disks)
        err_lo = abs(grid_region_uncovered(t, disks, 128) - exact)
        err_hi = abs(grid_region_uncovered(t, disks, 1024) - exact)
        if err_hi <= err_lo + 1e-12:
            improved += 1
    # rasterization noise is not strictly monotone per instance, but the
    # finer grid should win nearly always
    assert improved >= 16


def test_grid_matches_exact_union_at_high_resolution():
    t = tri((0, 0), (3, 0), (0, 3))
    disks = [(Point(0, 0), 1.0), (Point(3, 0), 1.0), (Point(0, 3), 1.0)]
    exact = t.area - triangle_disks_covered_area(t, disks)
    est = grid_region_uncovered(t, disks, 2048)
    assert est == pytest.approx(exact, abs=2e-3 * t.area)


def test_grid_deterministic():
    t = tri((0.3, 0.1), (2.7, 0.4), (1.1, 2.2))
    disks = [(Point(1.0, 1.0), 0.7)]
    assert grid_region_uncovered(t, disks, 333) == grid_region_uncovered(t, disks, 333)


# --- cross-checks between the two estimators -------------------------------------


def test_mc_and_exact_union_agree_on_triangle_field():
    # right triangle occupying half of a square field; sensors at its vertices.
    # covered-in-triangle from the boundary walk must match MC restricted by
    # the exact per-triangle complement.
    t = tri((0, 0), (4, 0), (0, 4))
    R = 1.5
    disks = [(v, R) for v in t.vertices]
    covered = triangle_disks_covered_area(t, disks)

    field = make_field(4.0, 4.0, R, [(0, 0.0, 0.0), (1, 4.0, 0.0), (2, 0.0, 4.0)])
    est = mc_coverage_fraction(field, 2 * 10**6, seed=77)
    # the fourth corner disk is absent, so field coverage = covered area of the
    # lower triangle plus its mirror image under (x, y) -> (4 - x, 4 - y) minus
    # double-counted overlap; by symmetry of this configuration the two
    # triangles tile the square and each vertex disk stays within one triangle
    # half except across the shared diagonal, handled exactly by the union walk
    upper = tri((4, 0), (4, 4), (0, 4))
    upper_covered = triangle_disks_covered_area(
        upper, [(Point(4, 0), R), (Point(0, 4), R)]
    )
    expected_fraction = (covered + upper_covered) / (field.width * field.height)
    assert abs(est.before - expected_fraction) <= 3 * est.half_width
