"""End-to-end command-line tests: pipeline runs, determinism, error lines."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import tricover
from tricover import canonical_json_bytes, load_report
from tricover.cli import main


def write_scenario(path, stationary, width=10.0, height=10.0, radius=1.0, mobile=()):
    doc = {
        "schema_version": 1,
        "field": {
            "width": width,
            "height": height,
            "sensing_radius": radius,
            "stationary": [
                {"id": i, "x": float(x), "y": float(y)}
                for i, (x, y) in enumerate(stationary)
            ],
            "mobile": [
                {
                    "id": len(stationary) + j,
                    "x": float(x),
                    "y": float(y),
                    "sensing_radius": float(r),
                }
                for j, (x, y, r) in enumerate(mobile)
            ],
        },
        "meta": {},
    }
    path.write_bytes(canonical_json_bytes(doc))
    return path


def run_pipeline(tmp_path, tag=""):
    scen = tmp_path / f"scenario{tag}.json"
    det = tmp_path / f"detect{tag}.json"
    plan = tmp_path / f"plan{tag}.json"
    ver = tmp_path / f"verify{tag}.json"
    svg = tmp_path / f"render{tag}.svg"
    assert main(
        [
            "generate",
            "--width", "40", "--height", "40",
            "--n-stationary", "25", "--n-mobile", "3",
            "--radius", "4", "--mobile-radius", "4",
            "--seed", "42",
            "--out", str(scen),
        ]
    ) == 0
    assert main(["detect", "--scenario", str(scen), "--out", str(det)]) == 0
    assert main(
        [
            "plan",
            "--scenario", str(scen),
            "--report", str(det),
            "--mobile-radius", "4",
            "--out", str(plan),
        ]
    ) == 0
    assert main(
        [
            "verify",
            "--scenario", str(scen),
            "--report", str(plan),
            "--samples", "20000",
            "--seed", "7",
            "--out", str(ver),
        ]
    ) == 0
    assert main(
        [
            "render",
            "--scenario", str(scen),
            "--report", str(plan),
            "--out", str(svg),
        ]
    ) == 0
    return scen, det, plan, ver, svg


def assert_single_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert err.endswith("\n")
    body = err.rstrip("\n")
    assert "\n" not in body
    assert body.startswith(f"error: {kind}:")
    return body


# --- happy path -------------------------------------------------------------------


def test_full_pipeline(tmp_path):
    scen, det, plan, ver, svg = run_pipeline(tmp_path)

    scenario = json.loads(scen.read_text())
    assert len(scenario["field"]["stationary"]) == 25
    assert len(scenario["field"]["mobile"]) == 3
    assert scenario["meta"]["seed"] == 42

    detection = json.loads(det.read_text())
    assert detection["mesh"]["sites"] == 25
    assert detection["mesh"]["triangles"] == len(detection["triangles"])
    assert detection["triangles"]
    labels = {t["case"] for t in detection["triangles"]}
    assert labels <= set("ABCDEFGHI")
    assert all(t["s_h"] >= 0 for t in detection["triangles"])
    ids = [t["id"] for t in detection["triangles"]]
    assert sorted(ids) == list(range(len(ids)))

    planned = json.loads(plan.read_text())
    assert planned["plan"]["mobile_radius"] == 4
    assert len(planned["plan"]["assignments"]) <= 3
    assert planned["plan"]["total_movement"] >= 0
    # plan keeps the detection sections intact
    assert planned["triangles"] == detection["triangles"]
    assert planned["mesh"] == detection["mesh"]

    verified = json.loads(ver.read_text())
    v = verified["verify"]
    assert v["samples"] == 20000
    assert v["seed"] == 7
    assert 0.0 <= v["before"] <= v["after"] <= 1.0
    assert v["half_width"] > 0

    head = svg.read_text()[:200]
    assert head.startswith("<svg")


def test_pipeline_byte_identical_on_rerun(tmp_path):
    first = run_pipeline(tmp_path, tag="_a")
    second = run_pipeline(tmp_path, tag="_b")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_detect_output_is_parse_serialize_stable(tmp_path):
    scen, det, plan, ver, _ = run_pipeline(tmp_path)
    for path in (det, plan, ver):
        reparsed = canonical_json_bytes(json.loads(path.read_text()))
        assert reparsed == path.read_bytes()
        load_report(path)  # every section the CLI writes passes validation
    assert canonical_json_bytes(json.loads(scen.read_text())) == scen.read_bytes()


def test_verify_without_report_before_equals_after(tmp_path):
    scen = write_scenario(
        tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0
    )
    out = tmp_path / "v.json"
    assert main(
        [
            "verify",
            "--scenario", str(scen),
            "--samples", "5000",
            "--seed", "3",
            "--out", str(out),
        ]
    ) == 0
    v = json.loads(out.read_text())["verify"]
    assert v["before"] == v["after"]


def test_plan_from_verify_report_drops_verify_section(tmp_path):
    scen, _, plan, ver, _ = run_pipeline(tmp_path)
    replan = tmp_path / "replan.json"
    for radius in ("3", "4"):
        assert main(
            ["plan", "--scenario", str(scen), "--report", str(ver),
             "--mobile-radius", radius, "--out", str(replan)]
        ) == 0
        assert json.loads(replan.read_text())["verify"] is None
    # Same radius: the plan written from the detect report, byte for byte.
    assert replan.read_bytes() == plan.read_bytes()


@pytest.mark.parametrize("method", ["auto", "case", "exact"])
def test_detect_has_no_method_option(tmp_path, capsys, method):
    # the validity predicate alone picks each cell's route
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0)
    out = tmp_path / "d.json"
    assert main(
        ["detect", "--scenario", str(scen), "--method", method, "--out", str(out)]
    ) == 1
    body = assert_single_error_line(capsys, "usage")
    assert body == f"error: usage: unrecognized arguments: --method {method}"
    assert not out.exists()


def test_detect_epsilon_flag(tmp_path):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0)
    out = tmp_path / "d.json"
    assert main(
        [
            "detect",
            "--scenario", str(scen),
            "--epsilon", "1000",
            "--out", str(out),
        ]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["epsilon"] == 1000
    assert all(not t["is_hole"] for t in doc["triangles"])


def test_console_script_installed(tmp_path):
    """The ``[project.scripts]`` entry runs the CLI as its own process.

    The launcher is written the way pip writes one, from the entry in
    ``pyproject.toml``, and runs the ``tricover`` package this suite
    imported, so no install is needed and no other checkout is run.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["tricover"]
    module, func = entry.split(":")
    exe = tmp_path / "tricover"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    exe.chmod(0o755)
    src = Path(tricover.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    out = tmp_path / "s.json"
    proc = subprocess.run(
        [
            str(exe), "generate",
            "--width", "20", "--height", "20",
            "--n-stationary", "5", "--n-mobile", "0",
            "--radius", "3", "--mobile-radius", "3",
            "--seed", "1",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()

    proc = subprocess.run(
        [
            str(exe), "detect",
            "--scenario", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "d.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: "), proc.stderr


# --- error handling ---------------------------------------------------------------


def test_generate_rejects_too_few_sites(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--width", "10", "--height", "10",
            "--n-stationary", "2", "--n-mobile", "0",
            "--radius", "1", "--mobile-radius", "1",
            "--seed", "1",
            "--out", str(tmp_path / "s.json"),
        ]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--width", "inf", "field width must be > 0, got inf"),
        ("--width", "nan", "field width must be > 0, got nan"),
        ("--height", "-inf", "field height must be > 0, got -inf"),
        ("--height", "0", "field height must be > 0, got 0.0"),
        ("--radius", "nan", "sensing radius must be > 0, got nan"),
    ],
)
def test_generate_reports_bad_field_size(tmp_path, capsys, flag, value, message):
    options = {"--width": "10", "--height": "10", "--radius": "1", flag: value}
    out = tmp_path / "s.json"
    code = main(
        ["generate", *(f"{k}={v}" for k, v in options.items()),
         "--n-stationary", "5", "--n-mobile", "1", "--mobile-radius", "1",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 1
    assert assert_single_error_line(capsys, "invalid-input") == f"error: invalid-input: {message}"
    assert not out.exists()


def test_detect_non_finite_meta(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)])
    doc = json.loads(scen.read_text())
    doc["meta"] = {"note": float("nan")}
    scen.write_text(json.dumps(doc))  # json writes the NaN token
    out = tmp_path / "d.json"
    code = main(["detect", "--scenario", str(scen), "--out", str(out)])
    assert code == 1
    assert assert_single_error_line(capsys, "invalid-input") == (
        "error: invalid-input: non-finite value cannot be serialized: nan"
    )
    assert not out.exists()


def test_detect_missing_file(tmp_path, capsys):
    code = main(
        ["detect", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d.json")]
    )
    assert code == 1
    assert_single_error_line(capsys, "io")


def test_detect_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["detect", "--scenario", str(bad), "--out", str(tmp_path / "d.json")])
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


def test_detect_insufficient_sites(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 9)])
    code = main(["detect", "--scenario", str(scen), "--out", str(tmp_path / "d.json")])
    assert code == 1
    assert_single_error_line(capsys, "insufficient-sites")


# (sites, field side, sensing radius) of layouts Qhull finds flat: four on a
# diagonal, horizontal and vertical line, 50 on y = 2x, and three sites whose
# third lies 1e-15 off the line through the other two.
FLAT_LAYOUTS = {
    "diagonal": ([(1, 1), (3, 3), (5, 5), (7, 7)], 10.0, 1.0),
    "horizontal": ([(1, 5), (3, 5), (5, 5), (7, 5)], 10.0, 1.0),
    "vertical": ([(5, 1), (5, 3), (5, 5), (5, 7)], 10.0, 1.0),
    "50-on-y=2x": ([(x, 2 * x) for x in range(50)], 100.0, 1.0),
    "near-flat": ([(0, 0), (10, 0), (5, 1e-15)], 20.0, 3.0),
}


def test_detect_collinear_sites(tmp_path, capsys):
    out = tmp_path / "d.json"
    for name, (sites, side, radius) in FLAT_LAYOUTS.items():
        scen = write_scenario(tmp_path / "s.json", sites, width=side, height=side, radius=radius)
        assert main(["detect", "--scenario", str(scen), "--out", str(out)]) == 1, name
        body = assert_single_error_line(capsys, "insufficient-sites")
        assert body.startswith("error: insufficient-sites: triangulation failed: QH"), name
        assert len(body) <= 200, name
        assert not out.exists(), name


def test_detect_duplicate_sites(tmp_path, capsys):
    scen = write_scenario(
        tmp_path / "s.json", [(1, 1), (1, 1), (5, 9), (9, 1)]
    )
    code = main(["detect", "--scenario", str(scen), "--out", str(tmp_path / "d.json")])
    assert code == 1
    assert_single_error_line(capsys, "duplicate-site")


@pytest.mark.parametrize(
    "command, source",
    [
        ("plan", "detect"), ("render", "detect"), ("verify", "detect"), ("verify", "plan"),
        ("verify", "unknown-vertex"), ("verify", "mobile-twice"),
    ],
)
def test_report_scenario_mismatch(tmp_path, capsys, monkeypatch, command, source):
    """A report of another scenario (source ``detect`` or ``plan``), or a plan
    report edited to name an unknown vertex or assign a mobile twice, is
    refused before any work."""
    mobile = [(5, 5, 1.0)]
    scen_a = write_scenario(tmp_path / "a.json", [(1, 1), (9, 1), (5, 9)], radius=2.0, mobile=mobile)
    scen_b = write_scenario(tmp_path / "b.json", [(1, 2), (9, 1), (5, 9)], radius=2.0, mobile=mobile)
    det, plan, out = tmp_path / "d.json", tmp_path / "p.json", tmp_path / "out"
    assert main(["detect", "--scenario", str(scen_a), "--out", str(det)]) == 0
    assert main(
        ["plan", "--scenario", str(scen_a), "--report", str(det),
         "--mobile-radius", "2", "--out", str(plan)]
    ) == 0
    report = det if source == "detect" else plan
    scenario = scen_b
    if source in ("unknown-vertex", "mobile-twice"):
        doc = json.loads(plan.read_text())
        if source == "unknown-vertex":
            doc["triangles"][0]["vertices"] = [0, 1, 99]
        else:
            doc["plan"]["assignments"].append(dict(doc["plan"]["assignments"][0]))
        plan.write_text(json.dumps(doc))
        scenario = scen_a

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the report against the scenario")

    # the refusal must come before any Monte-Carlo work
    monkeypatch.setattr(tricover.pipeline, "mc_coverage_fraction", no_sampling)
    options = {
        "plan": ["--mobile-radius", "2"],
        "render": [],
        "verify": ["--samples", "100", "--seed", "1"],
    }[command]
    code = main(
        [command, "--scenario", str(scenario), "--report", str(report), "--out", str(out), *options]
    )
    assert code == 1
    assert_single_error_line(capsys, "inconsistent-input")
    assert not out.exists()


def test_plan_rejects_bad_mobile_radius(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0)
    det = tmp_path / "d.json"
    assert main(["detect", "--scenario", str(scen), "--out", str(det)]) == 0
    code = main(
        [
            "plan",
            "--scenario", str(scen),
            "--report", str(det),
            "--mobile-radius", "0",
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


@pytest.mark.parametrize("radius", ["nan", "inf", "0"])
@pytest.mark.parametrize("sensing_radius", [2.0, 20.0], ids=["holes", "no-holes"])
def test_plan_checks_mobile_radius_before_targets(
    tmp_path, capsys, monkeypatch, radius, sensing_radius
):
    scen = write_scenario(
        tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=sensing_radius
    )
    det, plan = tmp_path / "d.json", tmp_path / "p.json"
    assert main(["detect", "--scenario", str(scen), "--out", str(det)]) == 0
    holes = sum(t["is_hole"] for t in json.loads(det.read_text())["triangles"])
    assert holes == (1 if sensing_radius == 2.0 else 0)

    def no_targets(*args, **kwargs):
        raise AssertionError("built targets before checking the mobile radius")

    monkeypatch.setattr(tricover.pipeline, "targets_from_report", no_targets)
    code = main(
        ["plan", "--scenario", str(scen), "--report", str(det),
         f"--mobile-radius={radius}", "--out", str(plan)]
    )
    assert code == 1
    err = assert_single_error_line(capsys, "invalid-input")
    assert "mobile sensing radius must be > 0" in err
    assert not plan.exists()


def test_verify_rejects_bad_samples(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)])
    code = main(
        [
            "verify",
            "--scenario", str(scen),
            "--samples", "0",
            "--seed", "1",
            "--out", str(tmp_path / "v.json"),
        ]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


def _set(key, value):
    def mutate(entry):
        entry[key] = value

    return mutate


def _drop(key):
    return lambda entry: entry.pop(key)


@dataclass(frozen=True)
class _Raw:
    """JSON text that ``_dump`` writes verbatim in place of a value."""

    text: bytes


def _dump(doc) -> bytes:
    """``doc`` as JSON, with its one ``_Raw`` value, if any, written verbatim."""
    raw = []
    text = json.dumps(doc, default=lambda r: raw.append(r.text) or "\0raw").encode()
    return text.replace(b'"\\u0000raw"', raw[0]) if raw else text


# Values that ``json.loads`` refuses without a ``JSONDecodeError``, and one
# that it accepts but that nests too deeply to be encoded again.
NOT_UTF8 = _Raw(b'"\xff"')
DIGITS_5000 = _Raw(b"1" * 5000)
NESTED_100000 = _Raw(b"[" * 100_000 + b"]" * 100_000)
NESTED_700 = _Raw(b"[" * 700 + b"]" * 700)

# (part of the scenario to edit, edit); ``detect`` reads the scenario.
MALFORMED_SCENARIOS = {
    "meta-not-utf-8": ("meta", _set("note", NOT_UTF8)),
    "meta-integer-of-5000-digits": ("meta", _set("note", DIGITS_5000)),
    "sensor-id-of-5000-digits": ("sensor", _set("id", DIGITS_5000)),
    "meta-arrays-nested-100000-deep": ("meta", _set("note", NESTED_100000)),
    "meta-nested-700-deep": ("meta", _set("note", NESTED_700)),
    "sensor-id-string-of-50000-chars": ("sensor", _set("id", "x" * 50_000)),
}


def assert_short_error_line(err, case):
    """One error line that echoes no long value and names no Python call."""
    assert "Traceback" not in err
    assert err.count("error: ") == 1
    assert len(err.rstrip("\n")) <= 500
    assert "set_int_max_str_digits" not in err
    if case.endswith("-of-5000-digits"):
        assert f"integer of more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_a_single_error_line(tmp_path, capsys, case):
    where, mutate = MALFORMED_SCENARIOS[case]
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)])
    doc = json.loads(scen.read_text())
    mutate({"meta": doc["meta"], "sensor": doc["field"]["stationary"][0]}[where])
    scen.write_bytes(_dump(doc))
    out = tmp_path / "d.json"
    assert main(["detect", "--scenario", str(scen), "--out", str(out)]) == 1
    assert_short_error_line(assert_single_error_line(capsys, "invalid-input"), case)
    assert not out.exists()


# Strings that would break out of the SVG attributes ``render`` writes them into.
CASE_INJECTION = 'A" onmouseover="alert(1)'
KIND_INJECTION = 'x"/><script>alert(2)</script><g class="'

# A well-formed verify section, for edits of one of its fields.
GOOD_VERIFY = {"before": 0.5, "after": 0.75, "samples": 100, "seed": 1, "half_width": 0.1}

# (report to edit, edit, command that reads it, expected error kind)
MALFORMED_REPORTS = {
    "s_h-not-a-number": ("detect", "triangle", _set("s_h", "x"), "plan", "invalid-input"),
    "s_h-not-finite": ("detect", "triangle", _set("s_h", float("inf")), "plan", "invalid-input"),
    "s_h-boolean": ("detect", "triangle", _set("s_h", True), "plan", "invalid-input"),
    "s_h-beyond-float-range": ("detect", "triangle", _set("s_h", 10**400), "plan", "invalid-input"),
    "id-not-an-int": ("detect", "triangle", _set("id", "0"), "plan", "invalid-input"),
    "vertices-not-three": ("detect", "triangle", _set("vertices", [0, 1]), "plan", "invalid-input"),
    "vertices-not-ints": ("detect", "triangle", _set("vertices", [0, 1, 2.5]), "plan", "invalid-input"),
    "is_hole-not-a-bool": ("detect", "triangle", _set("is_hole", 1), "plan", "invalid-input"),
    "unknown-vertex": ("detect", "triangle", _set("vertices", [0, 1, 99]), "plan", "inconsistent-input"),
    "unknown-vertex-render": ("detect", "triangle", _set("vertices", [0, 1, 99]), "render", "inconsistent-input"),
    "unknown-vertex-verify": ("detect", "triangle", _set("vertices", [0, 1, 99]), "verify", "inconsistent-input"),
    "non-hole-unknown-vertex": ("detect", "triangle", lambda t: t.update(vertices=[0, 1, 99], is_hole=False), "plan", "inconsistent-input"),
    "non-hole-unknown-vertex-render": ("detect", "triangle", lambda t: t.update(vertices=[0, 1, 99], is_hole=False), "render", "inconsistent-input"),
    "non-hole-unknown-vertex-verify": ("detect", "triangle", lambda t: t.update(vertices=[0, 1, 99], is_hole=False), "verify", "inconsistent-input"),
    "triangle-not-an-object": ("detect", "triangles", _set(0, 5), "plan", "invalid-input"),
    "triangle-id-twice": ("detect", "triangles", lambda ts: ts.append(dict(ts[0])), "plan", "invalid-input"),
    "triangle-id-twice-verify": ("detect", "triangles", lambda ts: ts.append(dict(ts[0])), "verify", "invalid-input"),
    "triangle-id-twice-render": ("detect", "triangles", lambda ts: ts.append(dict(ts[0])), "render", "invalid-input"),
    "assignment-without-cell_id": ("plan", "assignment", _drop("cell_id"), "verify", "invalid-input"),
    "assignment-without-target": ("plan", "assignment", _drop("target"), "render", "invalid-input"),
    "assignment-target-not-an-object": ("plan", "assignment", _set("target", [5, 5]), "verify", "invalid-input"),
    "assignment-not-an-object": ("plan", "assignments", _set(0, 3), "verify", "invalid-input"),
    "assignment-unknown-mobile": ("plan", "assignment", _set("mobile_id", 99), "verify", "inconsistent-input"),
    "assignment-unknown-mobile-plan": ("plan", "assignment", _set("mobile_id", 99), "plan", "inconsistent-input"),
    "assignment-unknown-mobile-render": ("plan", "assignment", _set("mobile_id", 99), "render", "inconsistent-input"),
    "assignment-target-outside-field": ("plan", "assignment", _set("target", {"x": 10.5, "y": 5.0}), "verify", "invalid-input"),
    "assignment-target-outside-field-plan": ("plan", "assignment", _set("target", {"x": 10.5, "y": 5.0}), "plan", "invalid-input"),
    "assignment-target-outside-field-render": ("plan", "assignment", _set("target", {"x": 10.5, "y": 5.0}), "render", "invalid-input"),
    "assignment-mobile-twice": ("plan", "assignments", lambda a: a.append(dict(a[0], target={"x": 1.0, "y": 1.0})), "verify", "inconsistent-input"),
    "assignment-mobile-twice-plan": ("plan", "assignments", lambda a: a.append(dict(a[0], target={"x": 1.0, "y": 1.0})), "plan", "inconsistent-input"),
    "assignment-mobile-twice-render": ("plan", "assignments", lambda a: a.append(dict(a[0], target={"x": 1.0, "y": 1.0})), "render", "inconsistent-input"),
    "meta-not-an-object": ("detect", "report", _set("meta", [1, 2]), "plan", "invalid-input"),
    "meta-zero": ("detect", "report", _set("meta", 0), "plan", "invalid-input"),
    "meta-null": ("plan", "report", _set("meta", None), "render", "invalid-input"),
    "mesh-not-an-object": ("detect", "report", _set("mesh", "junk"), "plan", "invalid-input"),
    "mesh-sites-negative": ("detect", "report", _set("mesh", {"sites": -1, "triangles": 1}), "plan", "invalid-input"),
    "mesh-triangles-not-an-int": ("plan", "report", _set("mesh", {"sites": 3, "triangles": "1"}), "verify", "invalid-input"),
    "mesh-without-sites": ("detect", "report", _set("mesh", {"triangles": 1}), "plan", "invalid-input"),
    "verify-not-an-object": ("detect", "report", _set("verify", "junk"), "plan", "invalid-input"),
    "verify-before-above-one": ("plan", "report", _set("verify", dict(GOOD_VERIFY, before=1.5)), "render", "invalid-input"),
    "verify-after-not-finite": ("detect", "report", _set("verify", dict(GOOD_VERIFY, after=float("nan"))), "plan", "invalid-input"),
    "verify-samples-zero": ("detect", "report", _set("verify", dict(GOOD_VERIFY, samples=0)), "plan", "invalid-input"),
    "verify-seed-negative": ("plan", "report", _set("verify", dict(GOOD_VERIFY, seed=-1)), "verify", "invalid-input"),
    "verify-half_width-not-a-number": ("detect", "report", _set("verify", dict(GOOD_VERIFY, half_width="0.1")), "plan", "invalid-input"),
    "meta-not-utf-8": ("detect", "meta", _set("note", NOT_UTF8), "plan", "invalid-input"),
    "meta-integer-of-5000-digits": ("detect", "meta", _set("note", DIGITS_5000), "plan", "invalid-input"),
    "vertex-id-of-5000-digits": ("detect", "triangle", _set("vertices", [DIGITS_5000, 1, 2]), "plan", "invalid-input"),
    "meta-arrays-nested-100000-deep": ("detect", "meta", _set("note", NESTED_100000), "plan", "invalid-input"),
    "meta-nested-700-deep": ("detect", "meta", _set("note", NESTED_700), "plan", "invalid-input"),
    "case-list-of-20000": ("detect", "triangle", _set("case", list(range(20_000))), "plan", "invalid-input"),
    "case-not-a-label": ("detect", "triangle", _set("case", CASE_INJECTION), "plan", "invalid-input"),
    "case-not-a-label-verify": ("detect", "triangle", _set("case", CASE_INJECTION), "verify", "invalid-input"),
    "case-not-a-label-render": ("detect", "triangle", _set("case", CASE_INJECTION), "render", "invalid-input"),
    "kind-not-a-target-kind": ("plan", "assignment", _set("kind", KIND_INJECTION), "plan", "invalid-input"),
    "kind-not-a-target-kind-verify": ("plan", "assignment", _set("kind", KIND_INJECTION), "verify", "invalid-input"),
    "kind-not-a-target-kind-render": ("plan", "assignment", _set("kind", KIND_INJECTION), "render", "invalid-input"),
    "plan-mobile_radius-not-a-number": ("plan", "plan", _set("mobile_radius", "x"), "verify", "invalid-input"),
    "plan-mobile_radius-negative": ("plan", "plan", _set("mobile_radius", -5), "render", "invalid-input"),
    "plan-mobile_radius-zero": ("plan", "plan", _set("mobile_radius", 0), "verify", "invalid-input"),
    "plan-total_movement-negative": ("plan", "plan", _set("total_movement", -1.0), "verify", "invalid-input"),
    "assignment-distance-negative": ("plan", "assignment", _set("distance", -1.0), "verify", "invalid-input"),
    "verify-half_width-negative": ("plan", "report", _set("verify", dict(GOOD_VERIFY, half_width=-0.1)), "render", "invalid-input"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_report_is_a_single_error_line(tmp_path, capsys, case):
    source, where, mutate, command, kind = MALFORMED_REPORTS[case]
    scen = write_scenario(
        tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0, mobile=[(5, 5, 1.0)]
    )
    det, plan = tmp_path / "detect.json", tmp_path / "plan.json"
    assert main(["detect", "--scenario", str(scen), "--out", str(det)]) == 0
    assert main(
        ["plan", "--scenario", str(scen), "--report", str(det),
         "--mobile-radius", "1", "--out", str(plan)]
    ) == 0
    path = det if source == "detect" else plan
    doc = json.loads(path.read_text())
    target = {
        "report": lambda: doc,
        "meta": lambda: doc["meta"],
        "triangle": lambda: doc["triangles"][0],
        "triangles": lambda: doc["triangles"],
        "plan": lambda: doc["plan"],
        "assignment": lambda: doc["plan"]["assignments"][0],
        "assignments": lambda: doc["plan"]["assignments"],
    }[where]()
    mutate(target)
    path.write_bytes(_dump(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    options = {
        "plan": ["--mobile-radius", "1"],
        "verify": ["--samples", "100", "--seed", "1"],
        "render": [],
    }[command]
    argv = [command, "--scenario", str(scen), "--report", str(path), "--out", str(out), *options]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert_short_error_line(err, case)
    assert err.startswith(f"error: {kind}:")
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
def test_detect_rejects_bad_epsilon(tmp_path, capsys, epsilon):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)], radius=2.0)
    code = main(
        ["detect", "--scenario", str(scen), f"--epsilon={epsilon}",
         "--out", str(tmp_path / "d.json")]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


def test_negative_seed_is_rejected(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)])
    code = main(
        ["verify", "--scenario", str(scen), "--samples", "100",
         "--seed=-1", "--out", str(tmp_path / "v.json")]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")
    code = main(
        ["generate", "--width", "10", "--height", "10",
         "--n-stationary", "5", "--n-mobile", "0",
         "--radius", "1", "--mobile-radius", "1",
         "--seed=-1", "--out", str(tmp_path / "g.json")]
    )
    assert code == 1
    assert_single_error_line(capsys, "invalid-input")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert_single_error_line(capsys, "usage")


def test_missing_required_flag(tmp_path, capsys):
    assert main(["detect", "--out", str(tmp_path / "d.json")]) == 1
    assert_single_error_line(capsys, "usage")


def test_unwritable_output(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", [(1, 1), (9, 1), (5, 9)])
    code = main(
        [
            "detect",
            "--scenario", str(scen),
            "--out", str(tmp_path / "no" / "such" / "dir" / "d.json"),
        ]
    )
    assert code == 1
    assert_single_error_line(capsys, "io")
