"""Sensor field model: a rectangle with stationary and mobile sensors."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import isfinite
from typing import Sequence

from .errors import InvalidInputError
from .geometry import Point


@dataclass(frozen=True)
class Sensor:
    """A stationary sensor; its sensing radius is the field-wide one."""

    id: int
    position: Point


@dataclass(frozen=True)
class MobileSensor:
    """A relocatable sensor with its own sensing radius."""

    id: int
    position: Point
    radius: float


def check_field_size(width: float, height: float, sensing_radius: float) -> None:
    """Reject a field width, height or sensing radius that is not finite and > 0."""
    if not (isfinite(width) and width > 0):
        raise InvalidInputError(f"field width must be > 0, got {width}")
    if not (isfinite(height) and height > 0):
        raise InvalidInputError(f"field height must be > 0, got {height}")
    if not (isfinite(sensing_radius) and sensing_radius > 0):
        raise InvalidInputError(f"sensing radius must be > 0, got {sensing_radius}")


@dataclass(frozen=True)
class SensorField:
    """A rectangular deployment region ``[0, width] x [0, height]``.

    All sensor positions must lie inside the rectangle and ids must be
    unique across the stationary and mobile lists combined.
    """

    width: float
    height: float
    sensing_radius: float
    stationary: tuple[Sensor, ...]
    mobile: tuple[MobileSensor, ...] = dc_field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "stationary", tuple(self.stationary))
        object.__setattr__(self, "mobile", tuple(self.mobile))
        check_field_size(self.width, self.height, self.sensing_radius)
        seen: set[int] = set()
        for sensor in (*self.stationary, *self.mobile):
            if sensor.id in seen:
                raise InvalidInputError(f"duplicate sensor id {sensor.id}")
            seen.add(sensor.id)
            p = sensor.position
            if not (isfinite(p.x) and isfinite(p.y)):
                raise InvalidInputError(f"sensor {sensor.id}: non-finite position")
            if not (0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height):
                raise InvalidInputError(
                    f"sensor {sensor.id} at ({p.x}, {p.y}) lies outside the "
                    f"{self.width} x {self.height} field"
                )
        for m in self.mobile:
            if not (isfinite(m.radius) and m.radius > 0):
                raise InvalidInputError(
                    f"mobile sensor {m.id}: radius must be > 0, got {m.radius}"
                )

    @property
    def area(self) -> float:
        return self.width * self.height


def make_field(
    width: float,
    height: float,
    sensing_radius: float,
    stationary: Sequence[tuple[int, float, float]],
    mobile: Sequence[tuple[int, float, float, float]] = (),
) -> SensorField:
    """Convenience constructor from plain tuples."""
    return SensorField(
        width=width,
        height=height,
        sensing_radius=sensing_radius,
        stationary=tuple(Sensor(i, Point(x, y)) for i, x, y in stationary),
        mobile=tuple(MobileSensor(i, Point(x, y), r) for i, x, y, r in mobile),
    )
