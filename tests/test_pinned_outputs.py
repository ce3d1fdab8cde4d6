"""The benchmark's pinned outputs, reproduced through the CLI.

For each benchmark workload, generate -> detect -> plan -> verify -> render
runs in-process with the benchmark's own arguments, and the SHA-256 of every
output must equal the digest pinned in ``perfbench/pinned_seed42.json``.

``detect_digests.json`` pins the SHA-256 of ``detect.json`` for each
workload at three more seeds, so that a change to detection that claims to
keep every byte is checked on more than one scenario per workload shape.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from tricover.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned_seed42.json").read_text(encoding="utf-8"))
DETECT = json.loads(Path(__file__).with_name("detect_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    argvs = harness.stage_argvs(harness.WORKLOADS[workload], harness.PINNED_SEED, tmp_path)
    for stage in ("generate", "detect", "plan", "verify", "render"):
        assert main(argvs[stage]) == 0, stage
    digests = harness.digests(tmp_path)
    assert {stage: digests[stage] for stage in PINNED[workload]} == PINNED[workload]


@pytest.mark.parametrize(
    "workload, seed", [(w, seed) for w in sorted(DETECT) for seed in sorted(DETECT[w], key=int)]
)
def test_detect_matches_pinned_digests_at_more_seeds(tmp_path, monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    argvs = harness.stage_argvs(harness.WORKLOADS[workload], int(seed), tmp_path)
    for stage in ("generate", "detect"):
        assert main(argvs[stage]) == 0, stage
    assert harness.digests(tmp_path)["detect"] == DETECT[workload][seed]
