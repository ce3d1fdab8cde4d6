"""The pinned outputs of the benchmark workloads, reproduced through the CLI.

For each benchmark workload, generate -> detect -> plan -> verify -> render
runs in-process with the benchmark's own arguments, and the SHA-256 of every
output (``scenario.json``, ``detect.json``, ``plan.json``, ``verify.json``
and ``field.svg``) must equal its pinned digest: 60 digests in all, 3
workloads at seeds 42, 1042, 2042 and 7. ``perfbench/pinned_seed42.json``
pins four outputs at seed 42; ``output_digests.json`` pins the other 48,
keyed by workload, seed and stage, so that a change that claims to keep
every byte is checked on more than one scenario per workload shape.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from tricover.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned_seed42.json").read_text(encoding="utf-8"))
OUTPUTS = json.loads(Path(__file__).with_name("output_digests.json").read_text(encoding="utf-8"))
STAGES = ("generate", "detect", "plan", "verify", "render")


def run_digests(tmp_path, monkeypatch, workload, seed):
    """The SHA-256 of each stage's output, by stage, after one CLI pass."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    argvs = harness.stage_argvs(harness.WORKLOADS[workload], seed, tmp_path)
    for stage in STAGES:
        assert main(argvs[stage]) == 0, stage
    return harness.digests(tmp_path)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, workload):
    expected = {**PINNED[workload], **OUTPUTS[workload]["42"]}
    assert sorted(expected) == sorted(STAGES)
    assert run_digests(tmp_path, monkeypatch, workload, 42) == expected


@pytest.mark.parametrize(
    "workload, seed",
    [(w, seed) for w in sorted(OUTPUTS) for seed in sorted(OUTPUTS[w], key=int) if seed != "42"],
)
def test_detect_matches_pinned_digests_at_more_seeds(tmp_path, monkeypatch, workload, seed):
    # every output, ``detect.json`` among them, at each further seed
    expected = OUTPUTS[workload][seed]
    assert sorted(expected) == sorted(STAGES)
    assert run_digests(tmp_path, monkeypatch, workload, int(seed)) == expected
