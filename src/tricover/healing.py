"""Relocation planning for mobile sensors to patch detected holes.

Holes are ranked by area and the largest, one per mobile, are served.
Each served hole gets a target point inside (or for the circumcenter
rule, associated with) its triangle; mobiles are then assigned to targets
by an exact minimum-total-movement assignment.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, pi
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .field import SensorField, check_length
from .geometry import Point

CIRCUMCENTER = "circumcenter"
INCENTER = "incenter"


@dataclass(frozen=True)
class TargetLocation:
    """Where a mobile should go to patch one triangle's hole."""

    cell_id: int
    kind: str
    point: Point
    hole_area: float


@dataclass(frozen=True)
class Assignment:
    """One mobile dispatched to one target."""

    mobile_id: int
    target: TargetLocation
    distance: float


@dataclass(frozen=True)
class HealingPlan:
    """A full relocation plan: assignments plus the cell ids of unserved holes."""

    assignments: tuple[Assignment, ...]
    total_movement: float
    unserved: tuple[int, ...]


def check_mobile_radius(mobile_radius: float) -> None:
    """Reject a mobile sensing radius that is not a length (``check_length``)."""
    check_length("mobile sensing radius", mobile_radius)


def select_target(
    cell_id: int,
    hole_area: float,
    circumcenter: Point,
    incenter: Point,
    mobile_radius: float,
    bounds: tuple[float, float] | None = None,
) -> TargetLocation:
    """Pick the patch point for the hole of cell ``cell_id`` from its
    triangle's ``circumcenter`` and ``incenter``.

    Holes no larger than the mobile's disk (``area <= pi * R_m**2``) are
    patched at the circumcenter (equidistant from all three sensors);
    larger holes at the incenter (deepest interior point). ``bounds``
    optionally clamps the point into the ``[0, w] x [0, h]`` rectangle —
    circumcenters of obtuse triangles can fall outside it.
    """
    check_mobile_radius(mobile_radius)
    if hole_area <= pi * mobile_radius * mobile_radius:
        kind, point = CIRCUMCENTER, circumcenter
    else:
        kind, point = INCENTER, incenter
    if bounds is not None:
        w, h = bounds
        point = Point(min(max(point.x, 0.0), w), min(max(point.y, 0.0), h))
    return TargetLocation(cell_id=cell_id, kind=kind, point=point, hole_area=hole_area)


def rank_holes(holes: Iterable[tuple], n_mobiles: int) -> tuple[list[tuple], tuple[int, ...]]:
    """Split holes into the ones ``n_mobiles`` mobiles serve and the rest.

    Each hole is a tuple that starts ``(cell_id, hole_area, ...)``. Larger
    holes rank first, ties broken by cell id. Returns the first
    ``n_mobiles`` holes and the cell ids of the others, both in rank order.
    """
    ranked = sorted(holes, key=lambda h: (-h[1], h[0]))
    return ranked[:n_mobiles], tuple(h[0] for h in ranked[n_mobiles:])


def plan_relocation(
    targets: Sequence[TargetLocation],
    field: SensorField,
    unserved: Sequence[int] = (),
) -> HealingPlan:
    """Assign mobiles to the targets of served holes, minimizing total travel.

    ``targets`` are those of the holes :func:`rank_holes` serves, at most
    one per mobile; ``unserved`` holds the cell ids of the other holes and
    is copied into the plan. Surplus mobiles stay put. The assignment is
    exactly optimal (Hungarian method).
    """
    mobiles = sorted(field.mobile, key=lambda m: m.id)
    if len(targets) > len(mobiles):
        raise ValueError(
            f"{len(targets)} targets for {len(mobiles)} mobiles; rank the holes first"
        )
    unserved = tuple(unserved)
    if not targets:
        return HealingPlan(assignments=(), total_movement=0.0, unserved=unserved)
    cost = np.array(
        [
            [hypot(m.position.x - t.point.x, m.position.y - t.point.y) for t in targets]
            for m in mobiles
        ]
    )
    rows, cols = linear_sum_assignment(cost)
    assignments = tuple(
        sorted(
            (
                Assignment(
                    mobile_id=mobiles[r].id,
                    target=targets[c],
                    distance=float(cost[r, c]),
                )
                for r, c in zip(rows, cols)
            ),
            key=lambda a: a.mobile_id,
        )
    )
    total = 0.0  # added in order: ``sum`` of floats compensates from Python 3.12
    for a in assignments:
        total += a.distance
    return HealingPlan(assignments=assignments, total_movement=total, unserved=unserved)
