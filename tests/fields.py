"""Test fields from plain tuples."""
from __future__ import annotations

from typing import Sequence

from tricover import MobileSensor, Point, Sensor, SensorField


def make_field(
    width: float,
    height: float,
    sensing_radius: float,
    stationary: Sequence[tuple[int, float, float]],
    mobile: Sequence[tuple[int, float, float, float]] = (),
) -> SensorField:
    """A ``SensorField`` from ``(id, x, y)`` stationary and ``(id, x, y, r)``
    mobile tuples."""
    return SensorField(
        width=width,
        height=height,
        sensing_radius=sensing_radius,
        stationary=tuple(Sensor(i, Point(x, y)) for i, x, y in stationary),
        mobile=tuple(MobileSensor(i, Point(x, y), r) for i, x, y, r in mobile),
    )
