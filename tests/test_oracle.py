"""Monte-Carlo and grid estimator tests."""
from __future__ import annotations

from fractions import Fraction
from math import inf, nan, nextafter, pi, sqrt

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fields import make_field
from oracles import grid_region_uncovered
from tricover import (
    InconsistentInputError,
    InvalidInputError,
    Point,
    mc_coverage_fraction,
    triangle_disks_covered_area,
    triangle_from_vertices,
)
from tricover.oracle import (
    _COVERED,
    _HALF_DIAGONAL,
    _MIXED,
    _STAMP_PAIRS,
    _UNCOVERED,
    MC_CHUNK,
    _columns,
    _disk_runs,
    _in_disk_runs,
    _layout,
    _raster_layout,
    _reach,
    _stamp,
    _stationary_covered,
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


def _unchunked_hits(field, samples, seed, moves):
    # One draw of all samples, brute-force distances: the estimator's
    # definition without its chunking or kd-tree.
    pts = np.random.default_rng(seed).random((samples, 2))
    pts[:, 0] *= field.width
    pts[:, 1] *= field.height

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


def _run_mask(pts, disk, h, nx):
    # The estimator's test of one disk on its column run, on a raster of
    # nx columns of side h; the points are ordered by column for the test
    # and the mask is returned in their given order.
    col = _columns(pts[:, 0], 1.0 / h, nx)
    order = np.argsort(col, kind="stable")
    mask = np.empty(len(pts), dtype=bool)
    mask[order] = _in_disk_runs(
        pts[order], col[order], _disk_runs([disk], h, nx), np.zeros(len(pts), dtype=bool)
    )
    return mask


# Column layouts (h, nx): a few wide columns, fine columns over part of the
# points, columns about as wide as the disks, and the widest raster.
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


def _boundary_points(disk):
    (cx, cy), r = disk
    # the circle, the centre and the run ends fl(cx -/+ _reach(r, h)) of every layout
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
    for h, nx in RUN_LAYOUTS:
        assert np.array_equal(_run_mask(pts, disk, h, nx), full), (h, nx)
    # the points on the line y = cy reach past the circle on both sides
    axis = pts[:, 1] == cy
    assert full[axis].any() and not full[axis].all()
    assert pts[axis, 0].min() < cx - r and pts[axis, 0].max() > cx + r


@pytest.mark.parametrize("disk", BAND_DISKS, ids=lambda d: f"cx={d[0].x}-r={d[1]}")
def test_column_run_equals_full_scan_with_its_ends_on_column_edges(disk):
    # Rasters whose column edge k * h lies within an ulp or two of a run
    # end fl(cx -/+ _reach(r, h)), as x * (1/h) rounds, with points at both
    # ends and at the edges next to them; the run must end in the column
    # whose edge lies on the reach. The reach r * (1 + 1e-9) + c * h,
    # with c the widened half diagonal, puts the edge k * h on the end
    # cx -/+ reach at h = (cx -/+ r * (1 + 1e-9)) / (k +/- c).
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
                    run = _disk_runs([disk], h, MC_CHUNK)
                    assert (run.hi if sign > 0 else run.lo)[0] == k
                    on_edge += 1
                layouts += [(h, k), (h, k + 1), (h, MC_CHUNK)]
                xs += _near(end) + [x for i in (k - 1, k, k + 1) for x in _near(i * h)]
    assert on_edge > 0
    pts = np.array([(x, y) for x in sorted(set(xs)) for y in sorted(set(ys))])
    full = _full_scan(pts, disk)
    assert full.any() and not full.all()
    for h, nx in layouts:
        assert np.array_equal(_run_mask(pts, disk, h, nx), full), (h, nx)


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
        assert np.array_equal(_run_mask(pts, disk, h, nx), full)


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
    raster = _verify_raster(np.array([(x, y) for _, x, y in stationary]), radius, side, side, samples)
    centres = []
    for state in (_COVERED, _MIXED, _UNCOVERED):
        cells = np.flatnonzero(raster.state == state)
        assert len(cells) >= 10
        for c in rng.choice(cells, size=10, replace=False):
            j, i = divmod(int(c), raster.nx)
            centres.append(((i + 0.5) * raster.h, (j + 0.5) * raster.h))
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


def _verify_raster(sites, radius, width, height, samples):
    # the raster mc_coverage_fraction builds for these stationary sites
    return _stamp(_raster_layout(width, height, samples, len(sites), radius), sites, radius)


def _plain_covered(tree, pts, radius):
    dist, _ = tree.query(pts, distance_upper_bound=nextafter(radius, inf))
    return dist <= radius


def _raster_matches_plain_query(sensors, radius, layout, pts):
    """The answer of ``layout`` stamped by ``sensors`` for ``pts`` equals the plain query's; returns the raster."""
    tree = cKDTree(sensors)
    raster = _stamp(layout, np.array(sensors, dtype=float), radius)
    pts = np.array(pts, dtype=float)
    col = _columns(pts[:, 0], 1.0 / raster.h, raster.nx)
    got = _stationary_covered(pts, col, tree, raster, radius)
    assert np.array_equal(got, _plain_covered(tree, pts, radius))
    return raster


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


def _state_of(raster, i, j):
    return int(raster.state[j * raster.nx + i])


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
    states = set()
    for radius in radii:
        # points at sensor distance R * (1 +/- k * 2**-53) on the diagonal
        for scale in _ulp_steps(radius / sqrt(2.0)):
            t = sensor + scale if side == "covered" else sensor - scale
            if 0.0 <= t <= UNIT["width"]:
                pts.append((t, t))
        raster = _raster_matches_plain_query([(sensor, sensor)], radius, UNIT_LAYOUT, pts)
        assert raster.h == h
        states.add(_state_of(raster, 5, 5))
    assert states == {_MIXED, _COVERED if side == "covered" else _UNCOVERED}


def test_raster_matches_plain_query_one_cell_off():
    # 10000 cells on a 3 x 3 field give a 100 x 100 raster whose side h
    # rounds down, so the field corner lies outside the last cell by about
    # 33 ulps of h on each axis, and is put in that cell. A sensor at the
    # corner and a tiny radius: the corner is covered, and the cell is
    # decided only if δ is wide enough to reach past the corner.
    width = height = 3.0
    raster = _raster_matches_plain_query(
        [(width, height)], 1e-100, _layout(10000, width, height),
        _cell_points(0.03, 99, 99, width, height) + [(width, height)],
    )
    assert raster.nx == raster.ny == 100
    assert Fraction(width) > 100 * Fraction(raster.h)
    assert _state_of(raster, 99, 99) == _MIXED
    assert _state_of(raster, 97, 97) == _UNCOVERED


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
    raster = _raster_matches_plain_query(sensors, radius, UNIT_LAYOUT, pts)
    decided = np.count_nonzero(raster.state != _MIXED)
    assert decided > 0


def _stamped_pairs(raster, sites, radius):
    # The (site, cell) pairs the stamp visits: each site's window, from the
    # column (row) of its coordinate minus the reach to that of it plus the
    # reach.
    inv_h = 1.0 / raster.h
    reach = radius * (1.0 + 1e-9) + raster.h * _HALF_DIAGONAL
    spans = [
        _columns(v + reach, inv_h, n).astype(np.int64) - _columns(v - reach, inv_h, n) + 1
        for v, n in ((sites[:, 0], raster.nx), (sites[:, 1], raster.ny))
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
    for sites in (one, many):
        for radius in (1.0, 10.0 * diagonal, 2.0**200, 2.0**-200):
            raster = _verify_raster(sites, radius, width, height, samples)
            assert raster.state.size == raster.nx * raster.ny
            # the cell cap, one cell per two samples, and the stamp's pair budget
            assert 1 <= raster.state.size <= min(MC_CHUNK, max(1, samples // 2))
            pairs = _stamped_pairs(raster, sites, radius)
            assert pairs <= max(len(sites), min(_STAMP_PAIRS, 2 * samples))
            assert raster.nx * raster.h >= width * (1.0 - 2.0**-52)
            assert raster.ny * raster.h >= height * (1.0 - 2.0**-52)


def _every_site_states(raster, sites, radius):
    # Each cell's state from every site's distance to its centre, computed
    # with the stamp's expressions, without windows.
    cx = (np.arange(raster.nx) + 0.5) * raster.h
    cy = (np.arange(raster.ny) + 0.5) * raster.h
    delta = raster.h * _HALF_DIAGONAL
    dx = cx[:, np.newaxis] - sites[:, 0]
    rows = []
    for y in cy:
        dy = y - sites[:, 1]
        d = np.sqrt(dx * dx + dy * dy)
        covered = (d + delta <= radius * (1.0 - 1e-9)).any(axis=1)
        reached = (d - delta < radius * (1.0 + 1e-9)).any(axis=1)
        rows.append(np.where(covered, _COVERED, np.where(reached, _MIXED, _UNCOVERED)))
    return np.concatenate(rows)


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
            got = _stamp(layout, sites, radius).state
            assert np.array_equal(got, _every_site_states(layout, sites, radius)), radius
            seen |= set(np.unique(got).tolist())
    assert seen == {_COVERED, _MIXED, _UNCOVERED} or name.startswith("far-")


@pytest.mark.parametrize("radius", [0.05, 0.4, 1.58, 3.16])
def test_stamped_states_equal_every_site_classification_on_budgeted_layouts(radius):
    # the layouts verify picks, on seeded fields of 300 sites
    sites = np.random.default_rng(59).random((300, 2)) * (50.0, 40.0)
    for samples in (2000, 10**5, 10**6):
        raster = _verify_raster(sites, radius, 50.0, 40.0, samples)
        assert np.array_equal(raster.state, _every_site_states(raster, sites, radius))


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
    raise AssertionError(name)


@pytest.mark.parametrize(
    "name",
    ["one-stationary", "radius-wider-than-field", "radius-far-below-cell", "elongated",
     "fewer-than-8-samples", "raster-at-cap"],
)
def test_mc_with_raster_matches_one_draw_on_edge_fields(name):
    field, samples, moves = _edge_field(name)
    est = mc_coverage_fraction(field, samples, seed=37, moves=moves)
    hits_before, hits_after = _unchunked_hits(field, samples, 37, moves or {})
    assert est.before == hits_before / samples
    assert est.after == hits_after / samples
    assert hits_before > 0


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
