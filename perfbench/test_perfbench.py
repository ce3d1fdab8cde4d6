"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import harness
import run
import tracer as tracing
import worker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY = harness.Workload(n_stationary=40, n_mobile=4, radius_factor=1.0, samples=2000)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    monkeypatch.syspath_prepend(str(SRC))


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    assert all(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool) for m in result["metrics"].values())


def _snapshot() -> dict:
    return {(space.__name__, attr): value for space in tracing.namespaces() for attr, value in vars(space).items()}


def test_traced_pass_counts_work_and_restores_every_name(tmp_path):
    import tricover.cli

    before = _snapshot()
    t = tracing.Tracer()
    with tracing.installed(t):
        assert _snapshot() != before
        _, failed, _ = worker.run_pass(tricover.cli.main, harness.stage_argvs(TINY, 3, tmp_path), t)
    assert _snapshot() == before
    assert not failed
    m = harness.layer_metrics(t)
    assert set(m) | {"trace.overhead"} == set(harness.PER_LAYER_UNITS)
    # Every hole_area call is bucketed into exactly one route.
    assert m["holes.route_case"] + m["holes.route_exact"] == t.calls("holes.hole_area") > 0
    assert m["mesh.cells"] > 0 and m["oracle.samples_drawn"] > 0 and m["files.bytes_written"] > 0
    assert all(t.calls(f"cli.{stage}") == 1 for stage in worker.PIPELINE)


def test_names_are_restored_when_a_traced_pass_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("stage crashed")
    assert _snapshot() == before


def test_corrupted_output_counts_as_failed(monkeypatch):
    real = harness.spawn

    def corrupting(argvs, dirs, *args, **kwargs):
        out = real(argvs, dirs, *args, **kwargs)
        report = json.loads((dirs[0] / "detect.json").read_bytes())
        report["triangles"][0]["is_hole"] = not report["triangles"][0]["is_hole"]
        (dirs[0] / "detect.json").write_text(json.dumps(report), encoding="utf-8")
        return out

    monkeypatch.setattr(harness, "spawn", corrupting)
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_pinned_digests_cover_every_workload_and_output():
    pinned = json.loads(harness.PINNED.read_text(encoding="utf-8"))
    assert set(pinned) == set(harness.WORKLOADS) - {"tiny"}
    for digests in pinned.values():
        assert set(digests) == set(harness.STAGES)

