"""Canonical file format tests: quantization, round trips, validation."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fields import make_field
from tricover import (
    InconsistentInputError,
    InvalidInputError,
    ReportDoc,
    ScenarioDoc,
    canonical_json_bytes,
    load_report,
    load_scenario,
    report_from_dict,
    round_sig,
    save_report,
    save_scenario,
    scenario_from_dict,
)
from tricover import files
from tricover.cli import main


def sample_field():
    return make_field(
        10.0,
        8.0,
        1.5,
        [(0, 1.0, 1.0), (1, 9.0, 1.0), (2, 5.0, 7.0)],
        [(3, 2.5, 2.5, 0.75)],
    )


def sample_report_dict():
    return {
        "schema_version": 1,
        "scenario_hash": "ab" * 32,
        "mesh": {"sites": 3, "triangles": 1},
        "triangles": [
            {
                "id": 0,
                "vertices": [0, 1, 2],
                "case": "A",
                "s_h": 2.5,
                "method": "case-formula",
                "is_hole": True,
            }
        ],
        "plan": {
            "assignments": [
                {
                    "mobile_id": 3,
                    "cell_id": 0,
                    "kind": "incenter",
                    "target": {"x": 5.0, "y": 3.0},
                    "distance": 2.55,
                }
            ],
            "total_movement": 2.55,
            "unserved": [],
            "mobile_radius": 0.75,
        },
        "verify": None,
        "meta": {"method": "auto"},
    }


# --- float quantization -------------------------------------------------------


def test_round_sig_nine_digits():
    assert round_sig(0.12345678912345) == 0.123456789
    assert round_sig(1.0 / 3.0) == 0.333333333
    assert round_sig(123456789123.0) == 123456789000.0
    assert round_sig(2.0) == 2.0
    assert round_sig(-0.000123456789555) == -0.00012345679


def test_round_sig_idempotent():
    for v in (3.141592653589793, 1e-7 / 3, -2.7182818284590451e18, 0.0):
        once = round_sig(v)
        assert round_sig(once) == once


def test_round_sig_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        round_sig(float("nan"))
    with pytest.raises(InvalidInputError):
        round_sig(float("inf"))


# --- canonical JSON -----------------------------------------------------------


def oracle_round_sig(value):
    v = float(value)
    if not math.isfinite(v):
        raise InvalidInputError(f"non-finite value cannot be serialized: {v!r}")
    return float(f"{v:.9g}")


def oracle_canonize(obj):
    """The tree ``json.dumps`` is given to write a canonical file: the reference."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return oracle_round_sig(obj)
    if isinstance(obj, dict):
        return {str(k): oracle_canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_canonize(v) for v in obj]
    try:
        return oracle_round_sig(float(obj))  # numpy scalars
    except (TypeError, ValueError):
        raise InvalidInputError(f"unserializable value: {obj!r}")


def oracle_bytes(obj):
    text = json.dumps(oracle_canonize(obj), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def error_of(fn, obj):
    with pytest.raises(InvalidInputError) as info:
        fn(obj)
    return str(info.value)


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_keys = st.text() | st.integers(-5, 5) | st.booleans()
_trees = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_canonical_bytes_match_stdlib_oracle(obj):
    assert canonical_json_bytes(obj) == oracle_bytes(obj)


class _Str(str):
    def __str__(self):
        return "overridden"


class _Int(int):
    def __repr__(self):
        return "overridden"


EDGE_CASES = {
    "negative-zero": -0.0,
    "smallest-subnormal": 5e-324,
    "largest-float": 1.7976931348623157e308,
    "quantized-float": 0.1234567891234,
    "float-with-exponent": [1e-7 / 3, 123456789123.0, 1e22],
    "big-int": 10**30,
    "bool-vs-int": [True, False, 1, 0, 1.0],
    "int-and-bool-keys": {1: "a", True: "b", -2: "c", "10": "d", "9": "e"},
    "str-key-equal-to-int-key": {1: "int", "1": "str"},
    "quotes-backslashes": {'k"\\': 'v"\\/'},
    "brackets-commas-colons": {"[a], {b}": "x, y: z", ":": ","},
    "control-characters": {"\x00\x1f\n\t": "\r\x7f\b\f"},
    "non-ascii": {"\u00e9\u4e2d": "\U0001f600 \u00ff \u2028"},
    "empty-containers": {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}], "e": ()},
    "empty-top-dict": {},
    "empty-top-list": [],
    "tuples": (1, (2.5, ("x",)), {"t": (None,)}),
    "numpy-scalars": {"f": np.float64(0.1234567891234), "i": np.int64(3), "b": np.bool_(True)},
    "numpy-float32": np.float32(0.1),
    "str-and-int-subclasses": {"s": _Str("raw"), "i": _Int(7), _Str("k"): 1},
    "top-level-string": "\u00e9",
    "top-level-int": 42,
    "top-level-float": 2.0,
    "top-level-none": None,
    "top-level-true": True,
    # Each ``.9g`` text kept or repaired by the row writer's float column.
    "float-notation-boundaries": [
        {"v": v}
        for v in (
            0.0, -0.0, 37.0, 2.5, 1e-05, 0.0001, 0.000123456789, 123456789.0, 1234567891.0,
            1e15, 1e16, 1e22, 1 / 3, 5e-324, 1.7976931348623157e308,
        )
    ],
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_canonical_bytes_edge_cases(case):
    obj = EDGE_CASES[case]
    assert canonical_json_bytes(obj) == oracle_bytes(obj)


def test_canonical_bytes_hand_checked_text():
    raw = canonical_json_bytes({"b": [1, {}], "a": {"\u00e9": np.int64(3)}, "c": []})
    assert raw == (
        b'{\n  "a": {\n    "\\u00e9": 3.0\n  },\n'
        b'  "b": [\n    1,\n    {}\n  ],\n  "c": []\n}\n'
    )


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), float("-inf"), np.float64("nan"), object(), {1, 2}],
    ids=["nan", "inf", "-inf", "numpy-nan", "object", "set"],
)
@pytest.mark.parametrize(
    "wrap", [lambda v: v, lambda v: {"k": [1, v]}, lambda v: (v,)], ids=["bare", "nested", "tuple"]
)
def test_canonical_bytes_errors_match_oracle(bad, wrap):
    obj = wrap(bad)
    assert error_of(canonical_json_bytes, obj) == error_of(oracle_bytes, obj)


def test_canonical_bytes_first_bad_value_in_insertion_order_is_reported():
    obj = {"b": float("nan"), "a": object(), "c": float("inf")}
    message = error_of(canonical_json_bytes, obj)
    assert message == error_of(oracle_bytes, obj)
    assert message == "non-finite value cannot be serialized: nan"


def test_canonical_bytes_sorted_indented_terminated():
    raw = canonical_json_bytes({"b": 1, "a": [1.5, {"z": True, "y": None}]})
    text = raw.decode()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert "  " in text  # two-space indentation
    # stable under parse -> serialize
    assert canonical_json_bytes(json.loads(text)) == raw


def test_canonical_bytes_quantizes_floats():
    raw = canonical_json_bytes({"x": 0.1234567891234})
    assert b"0.123456789" in raw
    assert b"0.1234567891" not in raw


def test_canonical_bytes_deterministic():
    obj = {"k": [1, 2.0, "three"], "nested": {"a": 0.1}}
    assert canonical_json_bytes(obj) == canonical_json_bytes(obj)


def test_canonical_bytes_rejects_unserializable():
    with pytest.raises(InvalidInputError):
        canonical_json_bytes({"x": object()})


@pytest.mark.parametrize(
    "obj, place",
    [
        ({"a": 10**5000}, "at $['a']"),
        ({"k": [1, (2, -(10**4400))]}, "at $['k'][1][1]"),
        ([{"id": 1, "v": 2.5}, {"id": 10**5000, "v": 3.5}], "at $[1]['id']"),
        ({"t": [{"id": 0, "w": [1, 2]}, {"id": 1, "w": [3, 10**5000]}]}, "at $['t'][1]['w'][1]"),
        ({"b": 1, 10**5000: 2}, "as a key in $"),
        (10**5000, "at $"),
    ],
    ids=["dict-value", "nested", "record-list", "record-list-column", "key", "top-level"],
)
def test_canonical_bytes_names_the_place_of_an_int_beyond_the_digit_limit(obj, place):
    assert error_of(canonical_json_bytes, obj) == (
        f"cannot serialize an integer of more than {sys.get_int_max_str_digits()} digits {place}"
    )


def test_canonical_bytes_rejects_deep_nesting():
    obj: list = []
    for _ in range(10_000):
        obj = [obj]
    with pytest.raises(InvalidInputError, match="nested too deeply"):
        canonical_json_bytes(obj)


# --- record lists (the row writer) ------------------------------------------------


class _Float(float):
    def __repr__(self):
        return "overridden"


_ROW_TEXT = st.text(alphabet=st.sampled_from('ab%s"\\\n\x00é'), max_size=3)
_ROW_SCALARS = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": _ROW_TEXT,
    "bool": st.booleans(),
    "null": st.none(),
}
# What a deviation makes of one record's value, its column first given one type.
_ROW_DEVIATIONS = {
    "bool in int column": ("int", 0, lambda v: True),
    "int in float column": ("float", 0, lambda v: 1),
    "numpy float": ("float", 0, np.float64),
    "float subclass": ("float", 0, _Float),
    "list length": ("int", 3, lambda v: v[:2]),
    "tuple": ("int", 3, tuple),
}
ROW_DEVIATIONS = [
    None, *_ROW_DEVIATIONS, "missing key", "extra key", "renamed key", "non-str key", "empty dict",
    "non-finite",
]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_record_lists_match_stdlib_oracle(data):
    """Lists of records with one key set, as written and with one deviation,
    give the oracle's bytes; rows of one layout take the row writer, and
    nothing else does. Of two non-finite floats the first in record order is
    the one reported."""
    keys = data.draw(st.lists(_ROW_TEXT, min_size=1, max_size=4, unique=True), label="keys")
    layout = {
        key: (data.draw(st.sampled_from(sorted(_ROW_SCALARS))), data.draw(st.integers(0, 3)))
        for key in keys
    }

    def value(kind, width):
        draw = _ROW_SCALARS[kind]
        return data.draw(st.lists(draw, min_size=width, max_size=width) if width else draw)

    deviation = data.draw(st.sampled_from(ROW_DEVIATIONS), label="deviation")
    # a value or a key set deviates only from those of other records
    alone = deviation in (None, "non-str key", "empty dict", "non-finite")
    n = data.draw(st.integers(1 if alone else 2, 5), label="records")
    records = [{key: value(*layout[key]) for key in keys} for _ in range(n)]
    i = data.draw(st.integers(0, n - 1), label="record")
    key = data.draw(st.sampled_from(keys), label="key")
    if deviation in _ROW_DEVIATIONS:
        kind, width, deviate = _ROW_DEVIATIONS[deviation]
        for record in records:
            record[key] = value(kind, width)
        records[i][key] = deviate(records[i][key])
    elif deviation == "missing key":
        del records[i][key]
    elif deviation == "extra key":
        records[i][key + "+"] = 1
    elif deviation == "renamed key":
        records[i][key + "+"] = records[i].pop(key)
    elif deviation == "non-str key":
        for record in records:
            record[0] = 0
    elif deviation == "empty dict":
        records[i] = {}
    elif deviation == "non-finite":
        records.append(dict(records[i]))
        other = data.draw(st.sampled_from(keys), label="other key")
        records[i][key] = data.draw(st.sampled_from([math.nan, math.inf]))
        records[-1][other] = -math.inf
    obj = data.draw(
        st.sampled_from([records, {"k%": records}, [records, 1]]), label="nesting"
    )
    assert (files._rows(records, "") is None) == (deviation is not None)
    if deviation == "non-finite":
        assert error_of(canonical_json_bytes, obj) == error_of(oracle_bytes, obj)
    else:
        assert canonical_json_bytes(obj) == oracle_bytes(obj)


# --- scenarios ------------------------------------------------------------------


def test_scenario_round_trip_in_memory():
    doc = ScenarioDoc(field=sample_field(), meta={"seed": 7})
    back = scenario_from_dict(doc.to_dict())
    assert back.field == doc.field
    assert back.meta == doc.meta
    assert back.hash() == doc.hash()


def test_scenario_file_round_trip_byte_identical(tmp_path):
    doc = ScenarioDoc(field=sample_field(), meta={"seed": 7})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_scenario(doc, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scenario_hash_ignores_formatting(tmp_path):
    doc = ScenarioDoc(field=sample_field(), meta={})
    p = tmp_path / "s.json"
    save_scenario(doc, p)
    # reformat the file without changing values
    reformatted = json.dumps(json.loads(p.read_text()), indent=None)
    p.write_text(reformatted)
    assert load_scenario(p).hash() == doc.hash()


def test_scenario_hash_sensitive_to_values():
    a = ScenarioDoc(field=sample_field(), meta={})
    moved = make_field(
        10.0,
        8.0,
        1.5,
        [(0, 1.0, 1.1), (1, 9.0, 1.0), (2, 5.0, 7.0)],
        [(3, 2.5, 2.5, 0.75)],
    )
    b = ScenarioDoc(field=moved, meta={})
    assert len(a.hash()) == 64
    assert a.hash() != b.hash()


def test_scenario_without_mobiles_loads_empty():
    doc = ScenarioDoc(field=sample_field(), meta={}).to_dict()
    doc["field"].pop("mobile")
    back = scenario_from_dict(doc)
    assert back.field.mobile == ()


def test_scenario_rejects_bad_schema_version():
    doc = ScenarioDoc(field=sample_field(), meta={}).to_dict()
    doc["schema_version"] = 99
    with pytest.raises(InvalidInputError):
        scenario_from_dict(doc)


def test_scenario_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_scenario(p)
    p.write_text("[1, 2, 3]")
    with pytest.raises(InvalidInputError):
        load_scenario(p)
    doc = ScenarioDoc(field=sample_field(), meta={}).to_dict()
    del doc["field"]["width"]
    with pytest.raises(InvalidInputError):
        scenario_from_dict(doc)
    doc2 = ScenarioDoc(field=sample_field(), meta={}).to_dict()
    doc2["field"]["stationary"][0].pop("x")
    with pytest.raises(InvalidInputError):
        scenario_from_dict(doc2)
    # JSON types are checked exactly: strings, booleans, fractional ids and ints
    # beyond the float range are rejected, not coerced
    for where, key, value in (
        (("stationary", 0), "x", "3"),
        (("stationary", 0), "id", 100.5),
        (("stationary", 1), "id", True),  # sensor 1: True would pass as 1
        (("mobile", 0), "sensing_radius", "5"),
        ((), "sensing_radius", "5"),
        ((), "sensing_radius", True),
        ((), "height", 10**400),
    ):
        doc3 = ScenarioDoc(field=sample_field(), meta={}).to_dict()
        record = doc3["field"][where[0]][where[1]] if where else doc3["field"]
        record[key] = value
        with pytest.raises(InvalidInputError):
            scenario_from_dict(doc3)
        p.write_text(json.dumps(doc3))
        with pytest.raises(InvalidInputError):
            load_scenario(p)


# --- reports --------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    doc = report_from_dict(sample_report_dict())
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    save_report(doc, p1)
    save_report(load_report(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_sections_optional():
    doc = report_from_dict({"schema_version": 1, "scenario_hash": "00" * 32})
    assert doc.mesh is None
    assert doc.triangles is None
    assert doc.plan is None
    assert doc.verify is None
    assert doc.meta == {}


def test_report_rejects_bad_schema_and_hash():
    with pytest.raises(InvalidInputError):
        report_from_dict({"schema_version": 2, "scenario_hash": "00"})
    with pytest.raises(InvalidInputError):
        report_from_dict({"schema_version": 1})
    with pytest.raises(InvalidInputError):
        report_from_dict({"schema_version": 1, "scenario_hash": 42})


def test_report_rejects_incomplete_triangle_entry():
    doc = sample_report_dict()
    del doc["triangles"][0]["case"]
    with pytest.raises(InvalidInputError):
        report_from_dict(doc)


def test_report_rejects_negative_hole_area():
    doc = sample_report_dict()
    doc["triangles"][0]["s_h"] = -0.25
    with pytest.raises(InvalidInputError):
        report_from_dict(doc)


def test_report_rejects_plan_with_unknown_cell():
    doc = sample_report_dict()
    doc["plan"]["assignments"][0]["cell_id"] = 42
    with pytest.raises(InvalidInputError):
        report_from_dict(doc)
    doc2 = sample_report_dict()
    doc2["plan"]["unserved"] = [17]
    with pytest.raises(InvalidInputError):
        report_from_dict(doc2)


def test_report_rejects_plan_missing_keys():
    doc = sample_report_dict()
    del doc["plan"]["total_movement"]
    with pytest.raises(InvalidInputError):
        report_from_dict(doc)


def test_report_doc_to_dict_shape():
    doc = ReportDoc(scenario_hash="aa" * 32, meta={"method": "auto"})
    d = doc.to_dict()
    assert set(d) == {
        "schema_version",
        "scenario_hash",
        "mesh",
        "triangles",
        "plan",
        "verify",
        "meta",
    }
    assert d["schema_version"] == 1


# --- reader error messages ----------------------------------------------------


def shown(record):
    """A short record as an error message echoes it: keys sorted."""
    return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in sorted(record.items())) + "}"


def _drop(key):
    return lambda r: {k: v for k, v in r.items() if k != key}


def _set(key, value):
    return lambda r: dict(r, **{key: value})


def _malformed(what):
    return lambda r: f"malformed {what}: {shown(r)}"


TRIANGLE = {"id": 0, "vertices": [0, 1, 2], "case": "A", "s_h": 0.5, "method": "case-formula",
            "is_hole": True}
# mutation -> (what it makes of triangle record i, the message naming that record)
TRIANGLE_MUTATIONS = {
    "not a dict": (lambda r: [r], lambda r: "report triangle entry must be an object"),
    **{
        f"no {key}": (_drop(key), lambda r, key=key: f"report triangle entry is missing key {key!r}")
        for key in TRIANGLE
    },
    "bool id": (_set("id", True), _malformed("report triangle entry")),
    "float vertex": (_set("vertices", [0, 1.0, 2]), _malformed("report triangle entry")),
    "two vertices": (_set("vertices", [0, 1]), _malformed("report triangle entry")),
    "unknown case": (_set("case", "Z"), _malformed("report triangle entry")),
    "unknown method": (_set("method", "guess"), _malformed("report triangle entry")),
    "negative s_h": (_set("s_h", -0.5), _malformed("report triangle entry")),
    "s_h beyond float range": (
        _set("s_h", 10**400),
        lambda r: (
            f"malformed report triangle entry: {{'case': 'A', 'id': {r['id']}, 'is_hole': True, "
            "'method': 'case-formula', 's_h': 100000000000000000...0000000000000000000, "
            "'vertices': [0, 1, 2]}"
        ),
    ),
    "int is_hole": (_set("is_hole", 1), _malformed("report triangle entry")),
    # the id of the next record, or of the one before for the last: the later of
    # the two is named
    "duplicate id": (None, lambda r: f"report lists triangle id {r['id']} twice"),
}
N_RECORDS = 5


def mutated(records, i, mutation, mutations):
    mutate, message = mutations[mutation]
    if mutate is None:  # a duplicate id
        j = i + 1 if i + 1 < len(records) else i - 1
        records[i] = dict(records[i], id=records[j]["id"])
        return message(records[max(i, j)])
    records[i] = mutate(records[i])
    return message(records[i])


def triangles_report(triangles):
    return {"schema_version": 1, "scenario_hash": "ab" * 32, "triangles": triangles}


@pytest.mark.parametrize("i", [0, N_RECORDS // 2, N_RECORDS - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("mutation", sorted(TRIANGLE_MUTATIONS))
def test_report_reader_names_the_bad_triangle_entry(mutation, i):
    triangles = [dict(TRIANGLE, id=10 * k) for k in range(N_RECORDS)]
    message = mutated(triangles, i, mutation, TRIANGLE_MUTATIONS)
    assert error_of(report_from_dict, triangles_report(triangles)) == message


@pytest.mark.parametrize(
    "first, second",
    [("negative s_h", "not a dict"), ("no case", "duplicate id"), ("duplicate id", "bool id"),
     ("s_h beyond float range", "no vertices")],
)
def test_report_reader_names_the_earlier_of_two_bad_triangle_entries(first, second):
    triangles = [dict(TRIANGLE, id=10 * k) for k in range(N_RECORDS)]
    message = mutated(triangles, 1, first, TRIANGLE_MUTATIONS)
    mutated(triangles, 3, second, TRIANGLE_MUTATIONS)
    assert error_of(report_from_dict, triangles_report(triangles)) == message


SENSOR = {"id": 0, "x": 1.0, "y": 2.0}
MOBILE = dict(SENSOR, sensing_radius=0.75)


def sensor_mutations(record, what):
    numbers = [key for key in record if key != "id"]
    return {
        "not a dict": (lambda r: None, lambda r: f"{what} must be an object"),
        **{
            f"no {key}": (_drop(key), lambda r, key=key: f"{what} is missing key {key!r}")
            for key in record
        },
        "bool id": (_set("id", True), _malformed(what)),
        "float id": (_set("id", 1.5), _malformed(what)),
        **{f"text {key}": (_set(key, "1"), _malformed(what)) for key in numbers},
        **{f"bool {key}": (_set(key, False), _malformed(what)) for key in numbers},
        **{f"nan {key}": (_set(key, math.nan), _malformed(what)) for key in numbers},
    }


SENSOR_MUTATIONS = {
    "stationary": sensor_mutations(SENSOR, "scenario stationary sensor"),
    "mobile": sensor_mutations(MOBILE, "scenario mobile sensor"),
}
SENSOR_CASES = [(kind, m) for kind in sorted(SENSOR_MUTATIONS) for m in sorted(SENSOR_MUTATIONS[kind])]


def sensors_scenario(kind, records):
    doc = ScenarioDoc(field=sample_field(), meta={}).to_dict()
    doc["field"][kind] = records
    return doc


@pytest.mark.parametrize("i", [0, N_RECORDS // 2, N_RECORDS - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind, mutation", SENSOR_CASES)
def test_scenario_reader_names_the_bad_sensor(kind, mutation, i):
    record = SENSOR if kind == "stationary" else MOBILE
    records = [dict(record, id=10 + k) for k in range(N_RECORDS)]
    message = mutated(records, i, mutation, SENSOR_MUTATIONS[kind])
    assert error_of(scenario_from_dict, sensors_scenario(kind, records)) == message


@pytest.mark.parametrize("kind", sorted(SENSOR_MUTATIONS))
def test_scenario_reader_names_the_earlier_of_two_bad_sensors(kind):
    record = SENSOR if kind == "stationary" else MOBILE
    records = [dict(record, id=10 + k) for k in range(N_RECORDS)]
    message = mutated(records, 1, "nan x", SENSOR_MUTATIONS[kind])
    mutated(records, 3, "not a dict", SENSOR_MUTATIONS[kind])
    assert error_of(scenario_from_dict, sensors_scenario(kind, records)) == message


FIELD_SENSOR_ERRORS = {
    "duplicate id": ((11, 1.0, 1.0), "duplicate sensor id 11"),
    "nan x": ((17, math.nan, 1.0), "sensor 17: non-finite position"),
    "inf y": ((17, 1.0, math.inf), "sensor 17: non-finite position"),
    "outside": ((17, 4.5, 1.0), "sensor 17 at (4.5, 1.0) lies outside the 4.0 x 3.0 field"),
    "below": ((17, 1.0, -1e-300), "sensor 17 at (1.0, -1e-300) lies outside the 4.0 x 3.0 field"),
}


@pytest.mark.parametrize("fault", sorted(FIELD_SENSOR_ERRORS))
@pytest.mark.parametrize("mobile", [False, True], ids=["stationary", "mobile"])
def test_field_names_the_first_bad_sensor(fault, mobile):
    # The field checks its sensors as columns and walks them only to word
    # the first error: a bad sensor after a good one, then before another bad one.
    bad, message = FIELD_SENSOR_ERRORS[fault]
    stationary = [(10, 0.5, 0.5), (11, 1.5, 0.5), (12, 1.0, 2.0)]
    later_bad = (18, math.nan, math.nan)
    if mobile:
        mobiles = [(*bad, 1.0), (*later_bad, 1.0)]
    else:
        stationary, mobiles = stationary + [bad, later_bad], []
    with pytest.raises(InvalidInputError) as info:
        make_field(4.0, 3.0, 1.0, stationary, mobiles)
    assert str(info.value) == message


def test_field_takes_sensors_on_its_edges():
    corners = [(0, 0.0, 0.0), (1, 4.0, 0.0), (2, 4.0, 3.0), (3, 0.0, 3.0), (4, -0.0, 1.0)]
    assert len(make_field(4.0, 3.0, 1.0, corners).stationary) == 5


@pytest.mark.parametrize(
    "unknown, named",
    [({(0, 0): 7}, 7), ({(2, 1): 7}, 7), ({(4, 2): 7}, 7), ({(1, 2): 8, (3, 0): 7}, 8),
     ({(2, 0): 9, (2, 1): 8}, 9)],
    ids=["first", "middle", "last", "earlier-entry", "earlier-vertex"],
)
def test_check_scenario_names_the_first_unknown_vertex(unknown, named):
    scenario = ScenarioDoc(field=sample_field(), meta={})
    triangles = [dict(TRIANGLE, id=k, vertices=[0, 1, 2]) for k in range(N_RECORDS)]
    for (k, place), v in unknown.items():
        triangles[k]["vertices"][place] = v
    report = report_from_dict(dict(triangles_report(triangles), scenario_hash=scenario.hash()))
    with pytest.raises(InconsistentInputError) as info:
        report.check_scenario(scenario)
    assert str(info.value) == f"report references unknown sensor id {named}"


def test_report_reader_names_the_first_unknown_plan_cell():
    doc = sample_report_dict()
    doc["plan"]["assignments"][0]["cell_id"] = 42
    doc["plan"]["unserved"] = [17, 0, 5]
    assert error_of(report_from_dict, doc) == "plan references unknown cell id 42"
    doc = sample_report_dict()
    doc["plan"]["unserved"] = [0, 17, 5]
    assert error_of(report_from_dict, doc) == "plan references unknown cell id 17"


# --- files written by the stages ---------------------------------------------


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A scenario and its detect and plan reports, as the CLI writes them."""
    work = tmp_path_factory.mktemp("written")
    paths = {name: work / f"{name}.json" for name in ("scenario", "detect", "plan")}
    scen = str(paths["scenario"])
    for argv in (
        ["generate", "--width", "40", "--height", "40", "--n-stationary", "30", "--n-mobile", "3",
         "--radius", "4", "--mobile-radius", "4", "--seed", "5", "--out", scen],
        ["detect", "--scenario", scen, "--out", str(paths["detect"])],
        ["plan", "--scenario", scen, "--report", str(paths["detect"]), "--mobile-radius", "4",
         "--out", str(paths["plan"])],
    ):
        assert main(argv) == 0
    return work, paths


def test_loaded_canonical_scenario_hashes_its_bytes(written):
    _, paths = written
    doc = load_scenario(paths["scenario"])
    assert doc.hash() == hashlib.sha256(paths["scenario"].read_bytes()).hexdigest()


# One line holding a key and a scalar, of a canonical file.
_SCALAR_LINE = re.compile(rb'^( *)("[a-z_]+"): ([^\[{\n]+?)(,?)$', re.MULTILINE)
_FLOAT_TOKEN = re.compile(rb"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?$")


def respelled(token, how):
    """A float token spelled another way; the value is kept unless ``how`` is "unquantized"."""
    value = float(token)
    if how == "zero":
        mantissa, e, exponent = token.partition(b"e")
        return mantissa + (b"0" if b"." in mantissa else b".0") + e + exponent
    if how == "exponent":
        sign, digits, exponent = Decimal(token.decode()).as_tuple()
        return ("-" * sign + "".join(map(str, digits)) + f"e{exponent}").encode()
    if how == "int" and value.is_integer() and abs(value) < 1e15:
        return str(int(value)).encode()
    if how == "e0" and token.endswith(b".0"):  # as long as the canonical text
        return token[:-2] + b"e0"
    return repr(value * (1.0 + 2.0**-40) or 1.000000000001).encode()  # unquantized


def perturbed(data, how, pick, section):
    """``data`` with one perturbation ``how`` inside ``section`` (a byte range)."""
    start, end = section
    if how in ("reindent", "reorder"):
        doc = json.loads(data)
        if how == "reorder":
            def reverse(node):
                if isinstance(node, dict):
                    return {k: reverse(node[k]) for k in reversed(node)}
                if isinstance(node, list):
                    return [reverse(v) for v in node]
                return node
            return (json.dumps(reverse(doc), indent=2) + "\n").encode()
        return (json.dumps(doc, indent=pick([None, 0, 1, 4]), sort_keys=True) + "\n").encode()
    lines = [m for m in _SCALAR_LINE.finditer(data) if start <= m.start() and m.end() <= end]
    if how in ("zero", "exponent", "int", "e0", "unquantized"):
        lines = [m for m in lines if _FLOAT_TOKEN.match(m[3]) and (b"." in m[3] or b"e" in m[3])]
        m = pick(lines)
        return data[:m.start(3)] + respelled(m[3], how) + data[m.end(3):]
    if how == "escape":
        m = pick(lines)
        key = m[2]  # "k...": the first letter escaped
        return data[:m.start(2)] + b'"\\u%04x' % key[1] + key[2:] + data[m.end(2):]
    if how == "-0":  # the other spelling of an int
        m = pick([m for m in lines if m[3] == b"0"] or lines)
        return data[:m.start(3)] + b"-" + data[m.start(3):]
    if how == "swap":  # two neighbour keys of one record, in the same bytes
        pairs = [(a, b) for a, b in zip(lines, lines[1:]) if b.start() == a.end() + 1 and a[1] == b[1]]
        a, b = pick(pairs)
        swapped = a[1] + b[2] + b": " + b[3] + a[4] + b"\n" + b[1] + a[2] + b": " + a[3] + b[4]
        return data[:a.start()] + swapped + data[b.end():]
    if how == "space":  # one line break and indent before a bracket
        breaks = [m.start() for m in re.finditer(rb"\n +(?=[{}\]])", data[start:end])]
        at = start + pick(breaks)
        return data[:at] + b" " + data[at:].lstrip(b"\n ")
    m = pick(lines)  # a duplicate key before the line; JSON keeps the last
    return data[:m.start()] + m[1] + m[2] + b": null,\n" + data[m.start():]


TEXT_PERTURBATIONS = [
    "reindent", "reorder", "swap", "zero", "exponent", "int", "e0", "unquantized", "escape", "duplicate",
    "-0", "space",
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_perturbed_files_take_the_encoder_with_the_same_bytes(written, data):
    work, paths = written
    name = data.draw(st.sampled_from(["scenario", "detect", "plan"]), label="file")
    how = data.draw(st.sampled_from(TEXT_PERTURBATIONS), label="perturbation")
    original = paths[name].read_bytes()
    if name == "scenario":
        section = (0, len(original))
    else:  # the triangles section, the one written from rows
        start = original.index(b'\n  "triangles": [')
        section = (start, original.index(b"\n  ]", start))

    def pick(xs):  # the ends of a file often, as they frame its lists
        where = data.draw(st.sampled_from(["first", "last", "any"]), label="where")
        return xs[0] if where == "first" else xs[-1] if where == "last" else data.draw(st.sampled_from(xs))

    text = perturbed(original, how, pick, section)
    assert text != original
    edited = work / "edited.json"
    edited.write_bytes(text)
    if name == "scenario":
        doc = load_scenario(edited)
        canonical = oracle_bytes(doc.to_dict())
        assert doc.hash() == hashlib.sha256(canonical).hexdigest()
    else:
        doc = load_report(edited)
        save_report(doc, work / "out.json")
        assert (work / "out.json").read_bytes() == oracle_bytes(doc.to_dict())


EDITS = {
    "s_h": lambda e: dict(e, s_h=e["s_h"] + 0.5),
    "case": lambda e: dict(e, case="A" if e["case"] != "A" else "B"),
    "is_hole": lambda e: dict(e, is_hole=not e["is_hole"]),
    "vertices": lambda e: dict(e, vertices=e["vertices"][::-1]),
    "id": lambda e: dict(e, id=e["id"] + 10_000),
    "method": lambda e: dict(e, method="é"),
    "int s_h": lambda e: dict(e, s_h=1),
    "tuple vertices": lambda e: dict(e, vertices=tuple(e["vertices"])),
    "extra key": lambda e: dict(e, extra=1),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_edits_after_load_take_the_encoder_with_the_same_bytes(written, data):
    work, paths = written
    name = data.draw(st.sampled_from(["detect", "plan"]), label="file")
    doc = load_report(paths[name])
    index = data.draw(st.integers(0, len(doc.triangles) - 1), label="entry")
    edit = data.draw(st.sampled_from(sorted(EDITS)), label="edit")
    ways = ["in place", "replace", "replace unchanged", "meta"]
    way = data.draw(st.sampled_from(ways), label="way")
    if way == "in place":
        doc.triangles[index] = EDITS[edit](doc.triangles[index])
    elif way == "replace":
        entries = list(doc.triangles)
        entries[index] = EDITS[edit](entries[index])
        doc = dataclasses.replace(doc, triangles=entries)
    elif way == "replace unchanged":
        doc = dataclasses.replace(doc, triangles=[dict(e) for e in doc.triangles])
    else:
        doc.meta["edited"] = [edit, 0.25]
    save_report(doc, work / "out.json")
    assert (work / "out.json").read_bytes() == oracle_bytes(doc.to_dict())


def test_edited_scenario_hashes_its_value(written):
    _, paths = written
    doc = load_scenario(paths["scenario"])
    doc.meta["seed"] = -1
    assert doc.hash() == hashlib.sha256(oracle_bytes(doc.to_dict())).hexdigest()
    moved = dataclasses.replace(load_scenario(paths["scenario"]), field=sample_field())
    assert moved.hash() == ScenarioDoc(field=sample_field(), meta=moved.meta).hash()


@pytest.mark.parametrize("name", ["scenario"])
def test_every_break_around_a_row_is_checked(written, name):
    """Each line break before a row or a closing bracket, joined to the line
    before: the file is no longer canonical, and hashes as its value."""
    work, paths = written
    original, edited = paths[name].read_bytes(), work / f"joined-{name}.json"
    breaks = list(re.finditer(rb"\n +(?=[{\]])", original))
    assert len(breaks) > 30
    for m in breaks:
        edited.write_bytes(original[:m.start()] + b" " + original[m.end():])
        doc = load_scenario(edited)
        assert doc.hash() == hashlib.sha256(oracle_bytes(doc.to_dict())).hexdigest()
