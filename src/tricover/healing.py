"""Relocation planning for mobile sensors to patch detected holes.

Holes are ranked by area and the largest, one per mobile, are served.
Each served hole gets a target point, its triangle's circumcenter or
incenter, chosen for all served holes at once as columns; mobiles are then
assigned to targets by an exact minimum-total-movement assignment, and the
plan holds the plan section's rows. The scalar target rule, one hole at a
time, lives on as the tests' reference in ``tests/oracles.py``, which
:func:`select_targets` matches bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, pi
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .field import SensorField, check_length
from .files import CIRCUMCENTER, INCENTER
from .geometry import _mapped


@dataclass(frozen=True)
class HealingPlan:
    """A full relocation plan: the plan section's assignment rows, sorted by
    mobile id, their total movement, and the cell ids of unserved holes."""

    assignments: tuple[dict, ...]
    total_movement: float
    unserved: tuple[int, ...]


def check_mobile_radius(mobile_radius: float) -> None:
    """Reject a mobile sensing radius that is not a length (``check_length``)."""
    check_length("mobile sensing radius", mobile_radius)


def select_targets(
    hole_area: Sequence[float],
    circumcenter: np.ndarray,
    incenter: np.ndarray,
    mobile_radius: float,
    bounds: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """The patch point of each hole, from the column of hole areas and the
    ``(T, 2)`` columns of its triangle's ``circumcenter`` and ``incenter``:
    the column of target kinds and the ``(T, 2)`` column of points.

    Holes no larger than the mobile's disk (``area <= pi * R_m**2``) are
    patched at the circumcenter (equidistant from all three sensors);
    larger holes at the incenter (deepest interior point). Each point is
    then clamped into the ``bounds = (w, h)`` rectangle as
    ``min(max(v, 0.0), bound)``, ``-0.0`` kept, since the circumcenter of
    an obtuse triangle can fall outside it.
    """
    check_mobile_radius(mobile_radius)
    small = np.asarray(hole_area, dtype=float) <= pi * mobile_radius * mobile_radius
    points = np.where(small[:, None], circumcenter, incenter)
    points = np.where(0.0 > points, 0.0, points)  # max(v, 0.0)
    bound = np.array(bounds, dtype=float)
    points = np.where(bound < points, bound, points)  # min(v, bound)
    return np.where(small, CIRCUMCENTER, INCENTER), points


def rank_holes(holes: Iterable[tuple], n_mobiles: int) -> tuple[list[tuple], tuple[int, ...]]:
    """Split holes into the ones ``n_mobiles`` mobiles serve and the rest.

    Each hole is a tuple that starts ``(cell_id, hole_area, ...)``. Larger
    holes rank first, ties broken by cell id. Returns the first
    ``n_mobiles`` holes and the cell ids of the others, both in rank order.
    """
    ranked = sorted(holes, key=lambda h: (-h[1], h[0]))
    return ranked[:n_mobiles], tuple(h[0] for h in ranked[n_mobiles:])


def plan_relocation(
    cell_ids: Sequence[int],
    kinds: Sequence[str],
    points: np.ndarray,
    field: SensorField,
    unserved: Sequence[int] = (),
) -> HealingPlan:
    """Assign mobiles to the targets of served holes, minimizing total travel.

    Target ``j`` patches the hole of cell ``cell_ids[j]`` at ``points[j]``,
    of kind ``kinds[j]``, as :func:`select_targets` gives them for the holes
    :func:`rank_holes` serves; more targets than mobiles are
    ``invalid-input``. ``unserved`` holds the cell ids of the other holes
    and is copied into the plan. Surplus mobiles stay put. The assignment
    is exactly optimal (Hungarian method).
    """
    mobiles = sorted(field.mobile, key=lambda m: m.id)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) > len(mobiles):
        raise InvalidInputError(
            f"{len(points)} targets for {len(mobiles)} mobiles; rank the holes first"
        )
    unserved = tuple(unserved)
    if not len(points):
        return HealingPlan(assignments=(), total_movement=0.0, unserved=unserved)
    at = np.array([m.position for m in mobiles], dtype=float)
    dx, dy = (at[:, k, None] - points[:, k] for k in (0, 1))
    cost = _mapped(hypot, dx, dy)
    # The row indices come back ascending, so the rows are in mobile-id order.
    rows, cols = linear_sum_assignment(cost)
    ids, kinds = list(cell_ids), np.asarray(kinds).tolist()
    xs, ys = points.T.tolist()
    distances = cost[rows, cols].tolist()
    assignments = tuple(
        {
            "mobile_id": mobiles[r].id,
            "cell_id": ids[c],
            "kind": kinds[c],
            "target": {"x": xs[c], "y": ys[c]},
            "distance": d,
        }
        for r, c, d in zip(rows.tolist(), cols.tolist(), distances)
    )
    total = 0.0  # added in order: ``sum`` of floats compensates from Python 3.12
    for d in distances:
        total += d
    return HealingPlan(assignments=assignments, total_movement=total, unserved=unserved)
