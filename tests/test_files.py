"""Canonical file format tests: quantization, round trips, validation."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    InvalidInputError,
    ReportDoc,
    ScenarioDoc,
    canonical_json_bytes,
    load_report,
    load_scenario,
    make_field,
    report_from_dict,
    round_sig,
    save_report,
    save_scenario,
    scenario_from_dict,
)


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


def test_canonical_bytes_rejects_deep_nesting():
    obj: list = []
    for _ in range(10_000):
        obj = [obj]
    with pytest.raises(InvalidInputError, match="nested too deeply"):
        canonical_json_bytes(obj)


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
