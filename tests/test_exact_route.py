"""The exact route, bit for bit: ``hole_area`` on a mesh row against the
general n-disk boundary integral of ``tests/oracles.py`` on the same cell.

``hole_area`` specialises the integral to three disks of one radius on the
triangle's own vertices and computes each value it keeps with the general
one's float operations in their order, so the two must agree to the last
bit, not to a tolerance. The sweeps below reach the places where a
specialisation could slip: exact zeros in edge vectors (axis-aligned edges),
tangent pairs, a line at distance exactly ``R`` from a vertex, cells just
above the degeneracy bound, and both ends of the length range.
"""
from __future__ import annotations

from math import inf, ldexp, nan

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fields import cell_xy, geoms, triangle_from_vertices
from oracles import uncovered_by_vertex_disks
from tricover import (
    DegenerateGeometryError,
    InvalidInputError,
    Point,
    detect_holes,
    hole_area,
    triangulate,
)
from tricover.field import LENGTH_RANGE

SWEEP_SEED = 20261019
SWEEP_SIZE = 20_000


def tri(pts):
    return triangle_from_vertices(*(Point(float(x), float(y)) for x, y in pts))


def is_length(radius):
    """Whether ``radius`` lies in the length range; ``hole_area`` refuses
    any other radius as ``invalid-input``."""
    low, high = LENGTH_RANGE
    return low <= radius <= high


def bits(t, radius):
    """The exact route's and the oracle's value on ``t``, as ``float.hex``."""
    got = hole_area(cell_xy(t), radius).s_h
    return got.hex(), uncovered_by_vertex_disks(t, radius).hex()


def angle_kind(t):
    """``right``, ``obtuse`` or ``acute`` by the sign of the least dot product
    of the two edges at a vertex (exact on grid vertices)."""
    p = t.vertices
    dots = [
        (p[j].x - p[i].x) * (p[k].x - p[i].x) + (p[j].y - p[i].y) * (p[k].y - p[i].y)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    return "right" if 0.0 in dots else "obtuse" if min(dots) < 0.0 else "acute"


def sweep_cases(rng):
    """``(family, triangle, radius)`` for every family in turn, seeded."""
    low, high = (int(np.log2(v)) for v in LENGTH_RANGE)
    families = ("random", "right", "grid", "thin", "small", "large")
    while True:
        for family in families:
            if family == "right":
                # legs along the axes from a random corner, either way
                (x, y), (a, b) = rng.uniform(-4.0, 4.0, size=(2, 2)).tolist()
                pts = [(x, y), (x + a, y), (x, y + b)]
            elif family == "grid":
                # a half-unit grid: axis-aligned edges, exact zeros and right angles
                pts = rng.integers(-4, 5, size=(3, 2)) * 0.5 * 2.0 ** int(rng.integers(-8, 9))
            elif family == "thin":
                # area just above the bound 1e-12 * (longest side)^2
                base = float(rng.uniform(0.5, 8.0))
                height = 2e-12 * base * (1.0 + float(rng.uniform(1e-6, 1e-2)))
                pts = [(0.0, 0.0), (base, 0.0), (float(rng.uniform(0.0, base)), height)]
            else:
                pts = rng.uniform(-1.0, 1.0, size=(3, 2))
                if family != "random":  # sides near an end of the length range
                    k = low + 1 if family == "small" else high - 3
                    pts = [(ldexp(x, k), ldexp(y, k)) for x, y in pts]
            t = tri(pts)
            if t.degenerate:
                continue
            sides = t.sides
            side = sides[int(rng.integers(3))]
            choice = int(rng.integers(5))
            if choice == 0:
                radius = float(rng.uniform(0.05, 1.2)) * max(sides)
            elif choice == 1:  # a tangent pair: the edge's two spans may touch
                radius = 0.5 * side
            elif choice == 2:  # a nearly tangent pair
                radius = 0.5 * side * (1.0 + float(rng.uniform(-1e-9, 1e-9)))
            elif choice == 3:  # a height: that vertex's disk touches the opposite line
                radius = 2.0 * t.area / side
            else:  # a leg of a right triangle with axis-aligned legs gives s = 1 exactly
                radius = side
            yield family, t, radius


def test_exact_route_matches_the_general_integral_bit_for_bit():
    rng = np.random.default_rng(SWEEP_SEED)
    cases = sweep_cases(rng)
    seen = {"acute": 0, "right": 0, "obtuse": 0, "holes": 0, "covered": 0}
    families = dict.fromkeys(("random", "right", "grid", "thin", "small", "large"), 0)
    mismatches = []
    refused = 0
    for _ in range(SWEEP_SIZE):
        family, t, radius = next(cases)
        families[family] += 1
        if not is_length(radius):  # a small cell's radius can fall below the range
            with pytest.raises(InvalidInputError, match="must lie in"):
                hole_area(cell_xy(t), radius)
            refused += 1
            continue
        seen[angle_kind(t)] += 1
        got, want = bits(t, radius)
        if got != want:
            mismatches.append((family, t.vertices, radius, got, want))
        seen["holes" if float.fromhex(want) > 1e-9 * radius * radius else "covered"] += 1
    assert mismatches == []
    assert min(families.values()) >= SWEEP_SIZE // 7
    assert min(seen.values()) > 500, seen
    assert 0 < refused < families["small"] // 2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=3, unique=True
    ),
    scale=st.integers(-40, 40),
    fraction=st.floats(0.05, 1.25),
    jitter=st.floats(-1.0, 1.0),
)
def test_exact_route_bits_on_grid_and_jittered_triangles(pts, scale, fraction, jitter):
    # grid vertices, one of them moved off the grid by up to a tenth of a unit
    (x0, y0), *rest = pts
    moved = [(x0 + 0.1 * jitter, y0)] + rest
    t = tri([(ldexp(x, scale), ldexp(y, scale)) for x, y in moved])
    assume(not t.degenerate)
    got, want = bits(t, fraction * max(t.sides))
    assert got == want


def test_exact_route_refuses_exactly_the_degenerate_cells():
    # apex heights around the bound area = 1e-12 * base^2, on either side
    rng = np.random.default_rng(SWEEP_SEED + 1)
    refused = kept = 0
    for _ in range(400):
        base = float(rng.uniform(0.5, 8.0))
        height = 2e-12 * base * (1.0 + float(rng.uniform(-1e-3, 1e-3)))
        t = tri([(0.0, 0.0), (base, 0.0), (float(rng.uniform(0.0, base)), height)])
        if t.degenerate:
            refused += 1
            with pytest.raises(DegenerateGeometryError):
                hole_area(cell_xy(t), base)
        else:
            kept += 1
            got, want = bits(t, base)
            assert got == want
    assert refused > 100 and kept > 100


@pytest.mark.parametrize(
    "xy",
    [
        [nan, 0.0, 1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, nan, 1.0],  # only two of the sides are NaN
        [0.0, 0.0, 1.0, 0.0, 0.0, inf],
        [-1e308, 0.0, 1e308, 0.0, 0.0, 1.0],  # a side overflows
    ],
)
def test_exact_route_refuses_non_finite_cells(xy):
    with pytest.raises(InvalidInputError, match="sides and area must be finite"):
        hole_area(xy, 1.0)


def test_exact_route_never_exceeds_the_cell_area():
    # the area comes from the vertices, so no call can claim a larger cell
    assert hole_area([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], 0.1).s_h <= 0.5
    rng = np.random.default_rng(SWEEP_SEED + 2)
    cases = sweep_cases(rng)
    for _ in range(2000):
        _, t, radius = next(cases)
        for scale in (1.0, 1e-3):  # and radii far below the sides
            if is_length(scale * radius):
                assert 0.0 <= hole_area(cell_xy(t), scale * radius).s_h <= t.area
            else:
                with pytest.raises(InvalidInputError, match="must lie in"):
                    hole_area(cell_xy(t), scale * radius)


def test_exact_route_bits_on_every_workload_cell(workload_scenarios):
    checked = 0
    for (name, seed), scenario in workload_scenarios.items():
        radius = scenario.field.sensing_radius
        mesh = triangulate(scenario.field)
        reports = detect_holes(mesh, radius)
        exact = reports.method == "exact-fallback"
        cells = reports.cell_id[exact]
        got = [v.hex() for v in reports.hole_area[exact].tolist()]
        want = [uncovered_by_vertex_disks(t, radius).hex() for t in geoms(mesh, cells)]
        assert len(cells) > 500, (name, seed)
        assert got == want, (name, seed)
        checked += len(cells)
    assert checked > 15_000
