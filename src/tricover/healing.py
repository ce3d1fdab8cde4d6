"""Relocation planning for mobile sensors to patch detected holes.

Each hole gets a target point inside (or for the circumcenter rule,
associated with) its triangle; mobiles are then assigned to targets by an
exact minimum-total-movement assignment.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite, pi
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .field import SensorField
from .geometry import Point, TriangleGeom, circumcenter, incenter

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
    """A full relocation plan: assignments plus any unserved targets."""

    assignments: tuple[Assignment, ...]
    total_movement: float
    unserved: tuple[TargetLocation, ...]


def check_mobile_radius(mobile_radius: float) -> None:
    """Reject a mobile sensing radius that is not finite and > 0."""
    if not (isfinite(mobile_radius) and mobile_radius > 0):
        raise InvalidInputError(
            f"mobile sensing radius must be > 0, got {mobile_radius}"
        )


def select_target(
    cell_id: int,
    hole_area: float,
    tri: TriangleGeom,
    mobile_radius: float,
    bounds: tuple[float, float] | None = None,
) -> TargetLocation:
    """Pick the patch point for the hole of cell ``cell_id``.

    Holes no larger than the mobile's disk (``area <= pi * R_m**2``) are
    patched at the circumcenter (equidistant from all three sensors);
    larger holes at the incenter (deepest interior point). ``bounds``
    optionally clamps the point into the ``[0, w] x [0, h]`` rectangle —
    circumcenters of obtuse triangles can fall outside it.
    """
    check_mobile_radius(mobile_radius)
    if hole_area <= pi * mobile_radius * mobile_radius:
        kind = CIRCUMCENTER
        point, _ = circumcenter(tri)
    else:
        kind = INCENTER
        point, _ = incenter(tri)
    if bounds is not None:
        w, h = bounds
        point = Point(min(max(point.x, 0.0), w), min(max(point.y, 0.0), h))
    return TargetLocation(cell_id=cell_id, kind=kind, point=point, hole_area=hole_area)


def plan_relocation(
    targets: Sequence[TargetLocation], field: SensorField
) -> HealingPlan:
    """Assign mobiles to targets minimizing the total travel distance.

    With more targets than mobiles, the largest-area targets are served
    (ties broken by cell id) and the rest reported unserved; with more
    mobiles than targets, the surplus stays put. The assignment among the
    served targets is exactly optimal (Hungarian method).
    """
    mobiles = sorted(field.mobile, key=lambda m: m.id)
    ranked = sorted(targets, key=lambda t: (-t.hole_area, t.cell_id))
    served = ranked[: len(mobiles)]
    unserved = tuple(ranked[len(mobiles) :])
    if not served:
        return HealingPlan(assignments=(), total_movement=0.0, unserved=unserved)
    cost = np.array(
        [
            [hypot(m.position.x - t.point.x, m.position.y - t.point.y) for t in served]
            for m in mobiles
        ]
    )
    rows, cols = linear_sum_assignment(cost)
    assignments = tuple(
        sorted(
            (
                Assignment(
                    mobile_id=mobiles[r].id,
                    target=served[c],
                    distance=float(cost[r, c]),
                )
                for r, c in zip(rows, cols)
            ),
            key=lambda a: a.mobile_id,
        )
    )
    total = float(sum(a.distance for a in assignments))
    return HealingPlan(assignments=assignments, total_movement=total, unserved=unserved)

