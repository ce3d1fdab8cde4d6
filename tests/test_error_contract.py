"""Error-contract tests: every command exits 0 or prints one error line.

The fuzz test drops, retypes or negates one key of a valid scenario, plan
report or verify report. The commands that read that kind of document then
run on it through ``main()``: ``detect``, ``plan``, ``verify`` and
``render`` for a scenario, the last three for a report. Each must exit 0,
or exit 1 with a single ``error:`` line and no output file; any other
exception fails the test.

The key-coverage test drops each key of each record the program writes, in
turn, and requires a single ``invalid-input`` line unless the key is optional.

The mesh-summary test edits a detect report's ``mesh`` counts: a triangle
count other than the entries listed is ``invalid-input``, and a site count
other than the scenario's stationary sensors is ``inconsistent-input``.

The degenerate-hole test gives one hole of a detect report a repeated
vertex: ``plan`` refuses it as ``degenerate-geometry`` only if it serves it.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import load_report, load_scenario
from tricover.cli import main

# Replacement values for a retyped key; each edit uses one of another type.
RETYPED = (None, True, 0, -1.5, "x", [], {})


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A work directory, the valid files in it, and the documents to edit."""
    work = tmp_path_factory.mktemp("contract")
    paths = {name: work / f"{name}.json" for name in ("scenario", "detect", "plan", "verify")}
    scen = str(paths["scenario"])
    argvs = [
        ["generate", "--width", "40", "--height", "40", "--n-stationary", "30",
         "--n-mobile", "4", "--radius", "5", "--mobile-radius", "5", "--seed", "42",
         "--out", scen],
        ["detect", "--scenario", scen, "--out", str(paths["detect"])],
        ["plan", "--scenario", scen, "--report", str(paths["detect"]),
         "--mobile-radius", "5", "--out", str(paths["plan"])],
        ["verify", "--scenario", scen, "--report", str(paths["plan"]),
         "--samples", "1000", "--seed", "1", "--out", str(paths["verify"])],
    ]
    for argv in argvs:
        assert main(argv) == 0
    docs = {name: json.loads(paths[name].read_text()) for name in ("scenario", "plan", "verify")}
    return work, paths, docs


def key_paths(node, path=()):
    """The path of every dict key in ``node``, inside lists and dicts too."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, path + (i,))


def at(doc, path):
    """The value at ``path`` (keys and list indexes) inside ``doc``."""
    for step in path:
        doc = doc[step]
    return doc


def negated(value):
    if type(value) is bool:
        return not value
    if type(value) in (int, float):
        return -value
    return None


# The commands that read a report, with their own options.
REPORT_COMMANDS = (
    ["plan", "--mobile-radius", "5"],
    ["verify", "--samples", "1000", "--seed", "1"],
    ["render"],
)


def commands_reading(name, edited, paths, out):
    """The commands that read a document of kind ``name``, given ``edited`` in its place."""
    if name == "scenario":
        scen, reports = edited, (paths["detect"], paths["plan"], paths["plan"])
        first = [["detect", "--scenario", str(scen), "--out", out]]
    else:
        scen, reports, first = paths["scenario"], (edited,) * 3, []
    return first + [
        [*cmd, "--scenario", str(scen), "--report", str(report), "--out", out]
        for cmd, report in zip(REPORT_COMMANDS, reports)
    ]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_edited_key_gives_exit_0_or_one_error_line(valid, data):
    work, paths, docs = valid
    name = data.draw(st.sampled_from(sorted(docs)), label="document")
    doc = copy.deepcopy(docs[name])
    path = data.draw(st.sampled_from(list(key_paths(doc))), label="key")
    parent = at(doc, path[:-1])
    key, old = path[-1], parent[path[-1]]
    edits = ["drop", "retype"] + (["negate"] if negated(old) is not None else [])
    edit = data.draw(st.sampled_from(edits), label="edit")
    if edit == "drop":
        del parent[key]
    elif edit == "retype":
        others = [v for v in RETYPED if type(v) is not type(old)]
        parent[key] = data.draw(st.sampled_from(others), label="value")
    else:
        parent[key] = negated(old)
    edited = work / "edited.json"
    edited.write_text(json.dumps(doc))
    out = work / "out"
    for argv in commands_reading(name, edited, paths, str(out)):
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        text = err.getvalue()
        if code == 0:
            assert text == "", argv
            continue
        assert code == 1, argv
        assert text.endswith("\n") and "\n" not in text.rstrip("\n"), (argv, text)
        assert text.startswith("error: "), (argv, text)
        assert not out.exists(), argv


# The records each written file holds, as paths into the file; the command
# that reads the file; and the keys a reader accepts a file without.
RECORDS = {
    "scenario": ((), ("field",), ("field", "stationary", 0), ("field", "mobile", 0)),
    "detect": ((), ("mesh",), ("triangles", 0)),
    "plan": ((), ("plan",), ("plan", "assignments", 0), ("plan", "assignments", 0, "target")),
    "verify": ((), ("verify",)),
}
READER = {"scenario": ["detect"], "detect": REPORT_COMMANDS[0], "plan": REPORT_COMMANDS[1], "verify": REPORT_COMMANDS[2]}
OPTIONAL = {("field", "mobile"), ("meta",), ("mesh",), ("triangles",), ("plan",), ("verify",)}


def test_every_written_key_is_required_unless_optional(valid):
    work, paths, _ = valid
    edited, out = work / "dropped.json", work / "out"
    failures = []
    for name, records in RECORDS.items():
        written = json.loads(paths[name].read_text())
        for record_path in records:
            assert type(at(written, record_path)) is dict, (name, record_path)
            for key in at(written, record_path):
                doc = copy.deepcopy(written)
                del at(doc, record_path)[key]
                edited.write_text(json.dumps(doc))
                if record_path + (key,) in OPTIONAL:
                    (load_scenario if name == "scenario" else load_report)(edited)
                    continue
                scen, report = (edited, []) if name == "scenario" else (paths["scenario"], ["--report", str(edited)])
                out.unlink(missing_ok=True)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([*READER[name], "--scenario", str(scen), *report, "--out", str(out)])
                text = err.getvalue()
                one_line = text.endswith("\n") and "\n" not in text.rstrip("\n")
                if not (code == 1 and one_line and text.startswith("error: invalid-input: ")
                        and not out.exists()):
                    failures.append((name, record_path + (key,), code, text))
    assert failures == []


@pytest.mark.parametrize(
    "field, kind",
    [("triangles", "invalid-input"), ("sites", "inconsistent-input")],
)
def test_mesh_summary_must_count_the_report_and_scenario(valid, field, kind):
    work, paths, _ = valid
    doc = json.loads(paths["detect"].read_text())
    doc["mesh"][field] += 1
    edited, out = work / "mesh.json", work / "out"
    edited.write_text(json.dumps(doc))
    for cmd in REPORT_COMMANDS:
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*cmd, "--scenario", str(paths["scenario"]), "--report", str(edited), "--out", str(out)])
        text = err.getvalue()
        assert code == 1, cmd
        assert text.startswith(f"error: {kind}: report mesh counts ") and text.count("\n") == 1, (cmd, text)
        assert not out.exists(), cmd


@pytest.mark.parametrize("served", [True, False])
def test_plan_refuses_a_degenerate_hole_only_when_served(valid, served):
    """A detect report whose largest hole, which a mobile serves, has
    vertices ``[a, b, a]`` makes ``plan`` exit 1 with one
    ``degenerate-geometry`` line; the same edit on the smallest hole, which
    no mobile serves, leaves the plan section as it was."""
    work, paths, docs = valid
    doc = json.loads(paths["detect"].read_text())
    holes = [e for e in doc["triangles"] if e["is_hole"]]  # largest first
    assert len(holes) > len(docs["scenario"]["field"]["mobile"])
    victim = holes[0] if served else holes[-1]
    a, b, _ = victim["vertices"]
    victim["vertices"] = [a, b, a]
    edited, out = work / "degenerate.json", work / "out"
    edited.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*REPORT_COMMANDS[0], "--scenario", str(paths["scenario"]), "--report", str(edited), "--out", str(out)])
    text = err.getvalue()
    if served:
        assert code == 1
        assert text.startswith("error: degenerate-geometry: ") and text.count("\n") == 1, text
        assert not out.exists()
    else:
        assert code == 0 and text == ""
        assert json.loads(out.read_text())["plan"] == docs["plan"]["plan"]
        # the file embeds the edited triangle table, so its bytes differ
        assert out.read_bytes() != paths["plan"].read_bytes()
