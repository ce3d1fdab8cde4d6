"""Scenario and report files: canonical JSON with stable hashing.

Serialization is canonical so identical inputs produce byte-identical
files: keys sorted, two-space indentation, floats quantized to nine
significant digits, ASCII with ``\\uXXXX`` escapes, trailing newline.
``parse -> serialize`` is the identity on canonical files, and the
scenario hash is the SHA-256 of the canonical bytes of the parsed
scenario (formatting-insensitive).

The text is written in one direct pass by ``_encode``; it is the text
``json.dumps(tree, sort_keys=True, indent=2)`` gives for the tree with
every float quantized, tuples as lists and keys as ``str(key)``.
"""
from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Callable

from .errors import InconsistentInputError, InvalidInputError
from .field import MobileSensor, Sensor, SensorField
from .geometry import Point
from .healing import CIRCUMCENTER, INCENTER
from .holes import CaseLabel

SCHEMA_VERSION = 1

# Every float in a file is quantized to this many significant digits.
_FLOAT_DIGITS = 9

# The labels and target kinds a report may hold; ``render`` writes both
# into SVG attributes, so nothing else may pass the reader.
_CASES = frozenset(label.value for label in CaseLabel)
_KINDS = frozenset((CIRCUMCENTER, INCENTER))

# Error messages echo a bad value through ``_brief``: elided inside by
# these limits, then cut to ``_BRIEF_CHARS``, so an error line stays short
# whatever the file holds.
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxdict, _REPR.maxlist = 3, 8, 6
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 40
_BRIEF_CHARS = 200


def _brief(value: Any) -> str:
    text = _REPR.repr(value)
    return text if len(text) <= _BRIEF_CHARS else text[: _BRIEF_CHARS - 3] + "..."


def _quantize(v: float) -> float:
    if not isfinite(v):
        raise InvalidInputError(f"non-finite value cannot be serialized: {v!r}")
    return float(f"{v:.{_FLOAT_DIGITS}g}")


def round_sig(value: float) -> float:
    """Quantize to nine significant digits (the file precision)."""
    return _quantize(float(value))


def _number_text(value: Any) -> str:
    try:
        v = float(value)  # numpy scalars too
    except (TypeError, ValueError):
        raise InvalidInputError(f"unserializable value: {value!r}")
    return float.__repr__(_quantize(v))


# Scalar writers by exact type; subclasses and other types take the
# isinstance tests in ``_encode``.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _number_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj: Any, indent: str) -> str:
    """The canonical text of ``obj``, nested at the depth indented by ``indent``.

    A dict's values are encoded in insertion order and written in key
    order, so of several bad values the first in insertion order is the
    one reported.
    """
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        parts = {str(k): _encode(v, inner) for k, v in obj.items()}
        items = [f"{encode_basestring_ascii(k)}: {t}" for k, t in sorted(parts.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_encode(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    return _number_text(obj)


def canonical_json_bytes(obj: Any) -> bytes:
    """Canonical serialized form of a JSON-able object.

    An object nested too deeply for the encoder's recursion is ``invalid-input``.
    """
    try:
        return (_encode(obj, "") + "\n").encode("ascii")
    except RecursionError:
        raise InvalidInputError("value is nested too deeply to serialize") from None


def _parse_json(text: bytes | str, what: str) -> dict:
    # ``ValueError`` covers ``JSONDecodeError``, bytes that are not UTF-8 and
    # integers beyond Python's digit limit; deep nesting overflows the decoder.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        if type(exc) is ValueError:  # the digit limit; its text names a Python call
            raise InvalidInputError(
                f"{what} holds an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from exc
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    return doc


def _check_schema_version(doc: dict, what: str) -> None:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            f"{what} has unsupported schema_version {_brief(version)} "
            f"(expected {SCHEMA_VERSION})"
        )


def _get(doc: dict, key: str, what: str) -> Any:
    if key not in doc:
        raise InvalidInputError(f"{what} is missing required key {key!r}")
    return doc[key]


# JSON values are checked by exact type, so ``true`` is not a number.
def _is_finite(value: Any) -> bool:
    try:
        return type(value) in (int, float) and isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# --- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDoc:
    """A sensor field plus generator metadata, as stored on disk."""

    field: SensorField
    meta: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        f = self.field
        return {
            "schema_version": SCHEMA_VERSION,
            "field": {
                "width": f.width,
                "height": f.height,
                "sensing_radius": f.sensing_radius,
                "stationary": [
                    {"id": s.id, "x": s.position.x, "y": s.position.y}
                    for s in f.stationary
                ],
                "mobile": [
                    {
                        "id": m.id,
                        "x": m.position.x,
                        "y": m.position.y,
                        "sensing_radius": m.radius,
                    }
                    for m in f.mobile
                ],
            },
            "meta": self.meta,
        }

    def hash(self) -> str:
        return hashlib.sha256(canonical_json_bytes(self.to_dict())).hexdigest()


def _number(value: Any, what: str) -> float:
    if not _is_finite(value):
        raise TypeError(f"{what} must be a finite number, got {_brief(value)}")
    return float(value)


def _sensor_id(value: Any) -> int:
    if type(value) is not int:
        raise TypeError(f"sensor id must be an integer, got {_brief(value)}")
    return value


def scenario_from_dict(doc: dict) -> ScenarioDoc:
    _check_schema_version(doc, "scenario")
    fd = _get(doc, "field", "scenario")
    if not isinstance(fd, dict):
        raise InvalidInputError("scenario 'field' must be an object")
    try:
        stationary = tuple(
            Sensor(_sensor_id(s["id"]), Point(_number(s["x"], "x"), _number(s["y"], "y")))
            for s in _get(fd, "stationary", "scenario field")
        )
        mobile = tuple(
            MobileSensor(
                _sensor_id(m["id"]),
                Point(_number(m["x"], "x"), _number(m["y"], "y")),
                _number(m["sensing_radius"], "mobile sensing_radius"),
            )
            for m in fd.get("mobile", [])
        )
        sensor_field = SensorField(
            width=_number(_get(fd, "width", "scenario field"), "width"),
            height=_number(_get(fd, "height", "scenario field"), "height"),
            sensing_radius=_number(
                _get(fd, "sensing_radius", "scenario field"), "sensing_radius"
            ),
            stationary=stationary,
            mobile=mobile,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed scenario field: {exc}") from exc
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidInputError("scenario 'meta' must be an object")
    return ScenarioDoc(field=sensor_field, meta=meta)


def load_scenario(path: str | Path) -> ScenarioDoc:
    return scenario_from_dict(_parse_json(Path(path).read_bytes(), f"scenario {path}"))


def save_scenario(doc: ScenarioDoc, path: str | Path) -> None:
    Path(path).write_bytes(canonical_json_bytes(doc.to_dict()))


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class ReportDoc:
    """Detection / planning / verification results for one scenario.

    Sections not produced yet are ``None``; ``meta`` records the options
    and conventions used (e.g. the vertex-sector sum model).
    """

    scenario_hash: str
    mesh: dict | None = None
    triangles: list | None = None
    plan: dict | None = None
    verify: dict | None = None
    meta: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario_hash": self.scenario_hash,
            "mesh": self.mesh,
            "triangles": self.triangles,
            "plan": self.plan,
            "verify": self.verify,
            "meta": self.meta,
        }

    def check_scenario(self, scenario: ScenarioDoc) -> None:
        """Check that the report belongs to ``scenario``, before any other work.

        This is the one check between a report and its scenario. In order:
        the report names ``scenario``'s hash; every triangle entry's
        ``vertices`` are stationary sensor ids; every plan assignment names
        a mobile of the scenario, and none names one twice (all
        ``inconsistent-input``); every target lies inside the field
        (``invalid-input``).
        """
        actual = scenario.hash()
        if self.scenario_hash != actual:
            raise InconsistentInputError(
                "report was produced from a different scenario "
                f"(hash {self.scenario_hash[:12]}... != {actual[:12]}...)"
            )
        field = scenario.field
        if self.triangles is not None:
            stationary = {s.id for s in field.stationary}
            for entry in self.triangles:
                for v in entry["vertices"]:
                    if v not in stationary:
                        raise InconsistentInputError(f"report references unknown sensor id {v}")
        if self.plan is None:
            return
        mobiles = {m.id for m in field.mobile}
        assigned: set[int] = set()
        for a in self.plan["assignments"]:
            mobile_id = a["mobile_id"]
            if mobile_id not in mobiles:
                raise InconsistentInputError(f"plan references unknown mobile id {mobile_id}")
            if mobile_id in assigned:
                raise InconsistentInputError(f"plan assigns mobile {mobile_id} more than once")
            assigned.add(mobile_id)
        for a in self.plan["assignments"]:
            x, y = float(a["target"]["x"]), float(a["target"]["y"])
            if not (0.0 <= x <= field.width and 0.0 <= y <= field.height):
                raise InvalidInputError(
                    f"plan moves mobile {a['mobile_id']} to ({x}, {y}), outside the "
                    f"{field.width} x {field.height} field"
                )


def report_from_dict(doc: dict) -> ReportDoc:
    _check_schema_version(doc, "report")
    scenario_hash = _get(doc, "scenario_hash", "report")
    if not isinstance(scenario_hash, str):
        raise InvalidInputError("report 'scenario_hash' must be a string")
    report = ReportDoc(
        scenario_hash=scenario_hash,
        mesh=doc.get("mesh"),
        triangles=doc.get("triangles"),
        plan=doc.get("plan"),
        verify=doc.get("verify"),
        meta=doc.get("meta", {}),
    )
    _validate_report(report)
    return report


def _valid_triangle(t: dict) -> bool:
    v, s_h = t["vertices"], t["s_h"]
    return (
        type(t["id"]) is int
        and type(v) is list and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is int
        and type(t["case"]) is str and t["case"] in _CASES
        and type(t["method"]) is str
        and _is_finite(s_h) and s_h >= 0
        and type(t["is_hole"]) is bool
    )


def _valid_mesh(m: dict) -> bool:
    return all(type(m[k]) is int and m[k] >= 0 for k in ("sites", "triangles"))


def _valid_verify(v: dict) -> bool:
    return (
        all(_is_finite(v[k]) and 0 <= v[k] <= 1 for k in ("before", "after"))
        and type(v["samples"]) is int and v["samples"] > 0
        and type(v["seed"]) is int and v["seed"] >= 0
        and _is_finite(v["half_width"])
    )


def _valid_plan(p: dict) -> bool:
    return (
        type(p["assignments"]) is type(p["unserved"]) is list
        and all(type(cid) is int for cid in p["unserved"])
        and _is_finite(p["total_movement"])
    )


def _valid_assignment(a: dict) -> bool:
    target = a["target"]
    return (
        type(a["cell_id"]) is type(a["mobile_id"]) is int
        and type(a["kind"]) is str and a["kind"] in _KINDS
        and _is_finite(a["distance"])
        and type(target) is dict and _is_finite(target.get("x")) and _is_finite(target.get("y"))
    )


def _check_record(record: Any, valid: Callable[[dict], bool], what: str) -> None:
    if type(record) is not dict:
        raise InvalidInputError(f"{what} must be an object")
    try:
        ok = valid(record)
    except KeyError as exc:
        raise InvalidInputError(f"{what} is missing key {exc}") from None
    if not ok:
        raise InvalidInputError(f"malformed {what}: {_brief(record)}")


def _validate_report(report: ReportDoc) -> None:
    if type(report.meta) is not dict:
        raise InvalidInputError("report 'meta' must be an object")
    if report.mesh is not None:
        _check_record(report.mesh, _valid_mesh, "report mesh")
    if report.verify is not None:
        _check_record(report.verify, _valid_verify, "report verify section")
    cell_ids: set[int] = set()
    if report.triangles is not None:
        if not isinstance(report.triangles, list):
            raise InvalidInputError("report 'triangles' must be a list")
        for entry in report.triangles:
            _check_record(entry, _valid_triangle, "report triangle entry")
            if entry["id"] in cell_ids:
                raise InvalidInputError(f"report lists triangle id {_brief(entry['id'])} twice")
            cell_ids.add(entry["id"])
    if report.plan is not None:
        _check_record(report.plan, _valid_plan, "report plan")
        for a in report.plan["assignments"]:
            _check_record(a, _valid_assignment, "report plan assignment")
        referenced = [a["cell_id"] for a in report.plan["assignments"]]
        referenced.extend(report.plan["unserved"])
        for cid in referenced:
            if report.triangles is not None and cid not in cell_ids:
                raise InvalidInputError(
                    f"plan references unknown cell id {cid}"
                )


def load_report(path: str | Path) -> ReportDoc:
    return report_from_dict(_parse_json(Path(path).read_bytes(), f"report {path}"))


def save_report(doc: ReportDoc, path: str | Path) -> None:
    Path(path).write_bytes(canonical_json_bytes(doc.to_dict()))
