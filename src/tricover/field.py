"""Sensor field model: a rectangle with stationary and mobile sensors."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import isfinite

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


# Every length (a field side or a sensing radius) lies in this range. Within
# it a product of four lengths, such as the exact integral's discriminant,
# stays a normal float, and a field scaled by a power of two that keeps it
# in range gets the same answers from detect and verify. Outside it they
# can return wrong answers, or refuse a valid field under a misleading kind.
LENGTH_RANGE = (2.0**-200, 2.0**200)
_LENGTH_RANGE_TEXT = "[2^-200, 2^200]"


def check_length(what: str, value: float) -> None:
    """Reject a length that is not finite and > 0, or lies outside ``LENGTH_RANGE``."""
    if not (isfinite(value) and value > 0):
        raise InvalidInputError(f"{what} must be > 0, got {value}")
    low, high = LENGTH_RANGE
    if not low <= value <= high:
        raise InvalidInputError(f"{what} must lie in {_LENGTH_RANGE_TEXT}, got {value}")


def check_field_size(width: float, height: float, sensing_radius: float) -> None:
    """Reject a field width, height or sensing radius that is not a length."""
    check_length("field width", width)
    check_length("field height", height)
    check_length("sensing radius", sensing_radius)


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
            check_length(f"mobile sensor {m.id}: radius", m.radius)

