"""Scenario and report files: canonical JSON with stable hashing.

Serialization is canonical so identical inputs produce byte-identical
files: keys sorted, two-space indentation, floats quantized to nine
significant digits, ASCII with ``\\uXXXX`` escapes, trailing newline.
``parse -> serialize`` is the identity on canonical files, and the
scenario hash is the SHA-256 of the canonical bytes of the parsed
scenario (formatting-insensitive).

``canonical_json_bytes`` is the one writer. Its text is the text
``json.dumps(tree, sort_keys=True, indent=2)`` gives for the tree with
every float quantized, tuples as lists and keys as ``str(key)``. It is
written in one direct pass by ``_encode``, except that a list of like
records (the sensors of a scenario, the triangles of a report) is written
by ``_rows`` a column at a time, as one join of the columns' texts and the
constant pieces between them, with the same bytes.

A float column is formatted with ``.9g`` once. A text in plain notation
with a point is kept: it is the decimal of at most nine digits nearest
the value, and no other decimal of at most nine digits lies within an ulp
of the float it names (two such decimals differ by far more than an ulp of
a normal float), so ``float.__repr__`` of the quantized float, the
shortest text that reads back to it, prints the same characters. The other
texts (zeros, integral values, e-notation, where the two notations part)
are read back and printed by ``float.__repr__``.

The readers check the long record lists (sensors, triangle entries) a
column at a time; only when a column check fails are the records walked
by ``_check_record``, the one place that words an error, so the error
names the first bad record.
"""
from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from dataclasses import dataclass, field as dc_field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .errors import InconsistentInputError, InvalidInputError
from .field import MobileSensor, Sensor, SensorField
from .geometry import Point

SCHEMA_VERSION = 1

# Every float in a file is quantized to this many significant digits.
_FLOAT_DIGITS = 9
_QUANTIZED = f".{_FLOAT_DIGITS}g"

# The strings a report holds, defined here once: ``holes`` writes the case
# labels and routes and ``healing`` the target kinds. The case label of a
# triangle describes its three vertex disks, by each side's relation to 2R
# (shorter = overlapping pair, equal within the tangency tolerance =
# tangent pair, longer = separated pair) plus a full-coverage test:
#   A: all three sides longer than 2R
#   B: all three sides equal to 2R (three tangent pairs)
#   C: exactly two tangent pairs, none overlapping (computes like A)
#   D: exactly one overlapping pair
#   E: exactly two overlapping pairs
#   F: triangle fully covered (zero hole)
#   G: one overlapping pair plus a tangent pair (computes like D)
#   H: one tangent pair, none overlapping (computes like A)
#   I: all three pairs overlapping, triangle not fully covered
CASE_LABELS = tuple("ABCDEFGHI")
# The route that gave a cell's hole area.
CASE_FORMULA = "case-formula"
EXACT_FALLBACK = "exact-fallback"
# The patch point a plan target takes.
CIRCUMCENTER = "circumcenter"
INCENTER = "incenter"

# ``render`` writes labels and kinds into SVG attributes and ``plan`` copies
# routes, so nothing else may pass the reader.
_CASES = frozenset(CASE_LABELS)
_METHODS = frozenset((CASE_FORMULA, EXACT_FALLBACK))
_KINDS = frozenset((CIRCUMCENTER, INCENTER))

# Error messages echo a bad value through ``_brief``: elided inside by
# these limits, then cut to ``_BRIEF_CHARS``, so an error line stays short
# whatever the file holds. Two levels show a record's own keys and values
# even when it holds long lists, as the scenario field does.
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxdict, _REPR.maxlist = 2, 8, 6
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 40
_BRIEF_CHARS = 200


def _brief(value: Any) -> str:
    text = _REPR.repr(value)
    return text if len(text) <= _BRIEF_CHARS else text[: _BRIEF_CHARS - 3] + "..."


def _quantize(v: float) -> float:
    if not isfinite(v):
        raise InvalidInputError(f"non-finite value cannot be serialized: {v!r}")
    return float(format(v, _QUANTIZED))


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
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _block(brackets: str, items: Iterable[str], indent: str) -> str:
    """``items`` one to a line between ``brackets``, nested at the depth
    indented by ``indent``."""
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


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
        parts = {str(k): _encode(v, indent + "  ") for k, v in obj.items()}
        items = [f"{encode_basestring_ascii(k)}: {t}" for k, t in sorted(parts.items())]
        return _block("{}", items, indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = _rows(obj, indent) if type(obj[0]) is dict else None
        return rows or _block("[]", [_encode(v, indent + "  ") for v in obj], indent)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    return _number_text(obj)


def _column(values: Sequence[Any]) -> list[str] | None:
    """The canonical texts of ``values``, or ``None`` unless they are all of
    one exact scalar type and none is refused."""
    kinds = set(map(type, values))
    kind = kinds.pop()
    if kinds:
        return None
    if kind is float:  # ``_number_text``, a column at a time
        if not all(map(isfinite, values)):
            return None
        # A ``.9g`` text in plain notation with a point is already the text
        # of its quantized float (see the module docstring); zeros, integral
        # values and e-notation are repaired through the float.
        texts = list(map(format, values, repeat(_QUANTIZED)))
        return [t if "." in t and "e" not in t else float.__repr__(float(t)) for t in texts]
    text = _SCALAR_TEXT.get(kind)
    try:
        return None if text is None else list(map(text, values))
    except ValueError:  # an int beyond Python's digit limit
        return None


def _rows(records: Sequence[Any], indent: str) -> str | None:
    """The canonical text of ``records``, written a column at a time, or
    ``None`` unless they are rows of one layout.

    Rows of one layout are dicts with the same non-empty set of ``str``
    keys. Each key holds values of one exact scalar type, or lists of one
    non-zero length whose items, place by place, are of one exact scalar
    type. The layout is read from the records, so each document's
    ``to_dict`` stays the one owner of its layout. The text is one join of
    the columns' texts, interleaved with the constant pieces (keys,
    separators, brackets) that ``_block`` would put between them. On
    ``None`` the list takes the recursive encoder, which reports the first
    bad value in record order.
    """
    first = records[0]
    if not (
        first and set(map(type, first)) == {str} and set(map(type, records)) == {dict}
        and set(map(len, records)) == {len(first)}
    ):
        return None
    row = "\n" + indent + "  "  # before each record; the keys and the places
    key, place = row + "  ", row + "    "  # of a list are nested one and two deeper
    # ``pieces[j]`` precedes ``columns[j]`` in every record; ``after`` follows
    # the last column of a key: nothing, or the close of its list.
    pieces, columns, after = [], [], ""
    for name in sorted(first):
        try:
            values = list(map(itemgetter(name), records))
        except KeyError:  # a record with as many keys, but other ones
            return None
        opening = (after + "," if pieces else "{") + key + encode_basestring_ascii(name) + ": "
        width = len(values[0]) if type(values[0]) is list else 0
        if width:
            if set(map(type, values)) != {list} or set(map(len, values)) != {width}:
                return None
            pieces += [opening + "[" + place, *repeat("," + place, width - 1)]
            places = zip(*values)
            after = row + "  ]"
        else:
            pieces.append(opening)
            places = [values]
            after = ""
        for column in places:
            texts = _column(column)
            if texts is None:
                return None
            columns.append(texts)
    close = after + row + "}"
    lead, pieces[0] = pieces[0], close + "," + row + pieces[0]
    n, step = len(records), 2 * len(columns)
    text = [""] * (n * step + 1)
    for j, (piece, texts) in enumerate(zip(pieces, columns)):
        text[2 * j : n * step : step] = repeat(piece, n)
        text[2 * j + 1 : n * step : step] = texts
    text[0], text[-1] = "[" + row + lead, close + "\n" + indent + "]"
    return "".join(text)


def _too_long(value: int) -> bool:
    try:
        int.__repr__(value)
    except ValueError:
        return True
    return False


def _long_int_place(obj: Any, place: str) -> str | None:
    """Where in ``obj``, named from ``place``, the first int (a value or a
    dict key) beyond Python's digit limit lies, in the order ``_encode``
    writes; ``None`` if there is none."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(key, int) and _too_long(key):
                return f"as a key in {place}"
            found = _long_int_place(value, f"{place}[{_brief(key)}]")
            if found:
                return found
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            found = _long_int_place(value, f"{place}[{i}]")
            if found:
                return found
    elif isinstance(obj, int) and _too_long(obj):
        return f"at {place}"
    return None


def canonical_json_bytes(obj: Any) -> bytes:
    """Canonical serialized form of a JSON-able object.

    An object nested too deeply for the encoder's recursion, or holding an
    int of more digits than Python writes as text, is ``invalid-input``;
    the second error names the int's place, such as ``at $['a'][0]``.
    """
    try:
        return (_encode(obj, "") + "\n").encode("ascii")
    except RecursionError:
        raise InvalidInputError("value is nested too deeply to serialize") from None
    except ValueError:  # an int beyond Python's digit limit, as value or key
        place = _long_int_place(obj, "$")
        if place is None:
            raise
        raise InvalidInputError(
            f"cannot serialize an integer of more than "
            f"{sys.get_int_max_str_digits()} digits {place}"
        ) from None


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
def _of_types(values: Iterable[Any], *types: type) -> bool:
    return set(map(type, values)).issubset(types)


def _all_finite(values: Sequence[Any]) -> bool:
    try:
        return _of_types(values, int, float) and all(map(isfinite, values))
    except OverflowError:  # an int beyond the float range
        return False


def _is_finite(value: Any) -> bool:
    return _all_finite((value,))


def _columns(records: list, keys: Sequence[str]) -> list[list] | None:
    """The values of ``keys`` in ``records``, a list a key, or ``None``
    unless every record is a dict that holds every key."""
    if not _of_types(records, dict):
        return None
    try:
        return [list(map(itemgetter(key), records)) for key in keys]
    except KeyError:
        return None


def _check_record(record: Any, valid: Callable[[dict], bool], what: str) -> None:
    if type(record) is not dict:
        raise InvalidInputError(f"{what} must be an object")
    try:
        ok = valid(record)
    except KeyError as exc:
        raise InvalidInputError(f"{what} is missing key {exc}") from None
    if not ok:
        raise InvalidInputError(f"malformed {what}: {_brief(record)}")


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
                    {"id": s.id, "x": s.position.x, "y": s.position.y} for s in f.stationary
                ],
                "mobile": [
                    {"id": m.id, "x": m.position.x, "y": m.position.y, "sensing_radius": m.radius}
                    for m in f.mobile
                ],
            },
            "meta": self.meta,
        }

    def hash(self) -> str:
        """SHA-256 of the canonical bytes (formatting-insensitive)."""
        return hashlib.sha256(canonical_json_bytes(self.to_dict())).hexdigest()


def _valid_field(f: dict) -> bool:
    return (
        _is_finite(f["width"]) and _is_finite(f["height"]) and _is_finite(f["sensing_radius"])
        and type(f["stationary"]) is list and type(f.get("mobile", [])) is list
    )


def _valid_sensor(s: dict) -> bool:
    return type(s["id"]) is int and _is_finite(s["x"]) and _is_finite(s["y"])


def _valid_mobile(m: dict) -> bool:
    return _valid_sensor(m) and _is_finite(m["sensing_radius"])


def _sensor_columns(
    records: list, keys: Sequence[str], valid: Callable[[dict], bool], what: str
) -> list[list]:
    """The columns of ``keys`` (an id, then numbers) in the sensor
    ``records``, checked a column at a time. Only if a column check fails
    are the records walked by ``valid``, which accepts the same records, so
    the walk raises, naming the first bad one."""
    columns = _columns(records, keys)
    if columns is None or not (
        _of_types(columns[0], int) and all(map(_all_finite, columns[1:]))
    ):
        for record in records:
            _check_record(record, valid, what)
    return columns


def scenario_from_dict(doc: dict) -> ScenarioDoc:
    _check_schema_version(doc, "scenario")
    fd = _get(doc, "field", "scenario")
    _check_record(fd, _valid_field, "scenario field")
    ids, xs, ys = _sensor_columns(
        fd["stationary"], ("id", "x", "y"), _valid_sensor, "scenario stationary sensor"
    )
    mobile_ids, mobile_xs, mobile_ys, radii = _sensor_columns(
        fd.get("mobile", []), ("id", "x", "y", "sensing_radius"), _valid_mobile,
        "scenario mobile sensor",
    )
    sensor_field = SensorField(
        width=float(fd["width"]),
        height=float(fd["height"]),
        sensing_radius=float(fd["sensing_radius"]),
        stationary=tuple(map(Sensor, ids, map(Point, map(float, xs), map(float, ys)))),
        mobile=tuple(map(
            MobileSensor, mobile_ids, map(Point, map(float, mobile_xs), map(float, mobile_ys)),
            map(float, radii),
        )),
    )
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
        the report names ``scenario``'s hash; its mesh counts the
        scenario's stationary sensors as sites; every triangle entry's
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
        if self.mesh is not None and self.mesh["sites"] != len(field.stationary):
            raise InconsistentInputError(
                f"report mesh counts {self.mesh['sites']} sites, but the scenario has "
                f"{len(field.stationary)} stationary sensors"
            )
        if self.triangles is not None:
            stationary = {s.id for s in field.stationary}
            vertices = list(chain.from_iterable(map(itemgetter("vertices"), self.triangles)))
            if not stationary.issuperset(vertices):
                v = next(v for v in vertices if v not in stationary)
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
        and type(t["method"]) is str and t["method"] in _METHODS
        and _is_finite(s_h) and s_h >= 0
        and type(t["is_hole"]) is bool
    )


_TRIANGLE_KEYS = ("id", "vertices", "case", "method", "s_h", "is_hole")


def _triangle_ids(entries: list) -> set[int] | None:
    """The ids of the triangle ``entries``, or ``None`` unless every entry
    passes ``_valid_triangle`` and no id comes twice; checked a column at a
    time."""
    columns = _columns(entries, _TRIANGLE_KEYS)
    if columns is None:
        return None
    ids, vertices, cases, methods, s_h, holes = columns
    if not (
        _of_types(ids, int)
        and _of_types(vertices, list) and set(map(len, vertices)).issubset((3,))
        and _of_types(chain.from_iterable(vertices), int)
        and _of_types(cases, str) and _CASES.issuperset(cases)
        and _of_types(methods, str) and _METHODS.issuperset(methods)
        and _all_finite(s_h) and min(s_h, default=0) >= 0
        and _of_types(holes, bool)
    ):
        return None
    cell_ids = set(ids)
    return cell_ids if len(cell_ids) == len(ids) else None


def _valid_mesh(m: dict) -> bool:
    return all(type(m[k]) is int and m[k] >= 0 for k in ("sites", "triangles"))


def _valid_verify(v: dict) -> bool:
    return (
        all(_is_finite(v[k]) and 0 <= v[k] <= 1 for k in ("before", "after"))
        and type(v["samples"]) is int and v["samples"] > 0
        and type(v["seed"]) is int and v["seed"] >= 0
        and _is_finite(v["half_width"]) and v["half_width"] >= 0
    )


def _valid_plan(p: dict) -> bool:
    return (
        type(p["assignments"]) is type(p["unserved"]) is list
        and _of_types(p["unserved"], int)
        and _is_finite(p["total_movement"]) and p["total_movement"] >= 0
        and _is_finite(p["mobile_radius"]) and p["mobile_radius"] > 0
    )


def _valid_assignment(a: dict) -> bool:
    target = a["target"]
    return (
        type(a["cell_id"]) is type(a["mobile_id"]) is int
        and type(a["kind"]) is str and a["kind"] in _KINDS
        and _is_finite(a["distance"]) and a["distance"] >= 0
        and type(target) is dict and _is_finite(target.get("x")) and _is_finite(target.get("y"))
    )


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
        ids = _triangle_ids(report.triangles)
        if ids is not None:
            cell_ids = ids
        else:  # the walk names the first bad entry
            for entry in report.triangles:
                _check_record(entry, _valid_triangle, "report triangle entry")
                if entry["id"] in cell_ids:
                    raise InvalidInputError(f"report lists triangle id {_brief(entry['id'])} twice")
                cell_ids.add(entry["id"])
        if report.mesh is not None and report.mesh["triangles"] != len(report.triangles):
            raise InvalidInputError(
                f"report mesh counts {report.mesh['triangles']} triangles, "
                f"but the report lists {len(report.triangles)}"
            )
    if report.plan is not None:
        _check_record(report.plan, _valid_plan, "report plan")
        for a in report.plan["assignments"]:
            _check_record(a, _valid_assignment, "report plan assignment")
        referenced = [a["cell_id"] for a in report.plan["assignments"]]
        referenced.extend(report.plan["unserved"])
        if report.triangles is not None and not cell_ids.issuperset(referenced):
            cid = next(cid for cid in referenced if cid not in cell_ids)
            raise InvalidInputError(f"plan references unknown cell id {cid}")


def load_report(path: str | Path) -> ReportDoc:
    return report_from_dict(_parse_json(Path(path).read_bytes(), f"report {path}"))


def save_report(doc: ReportDoc, path: str | Path) -> None:
    Path(path).write_bytes(canonical_json_bytes(doc.to_dict()))
