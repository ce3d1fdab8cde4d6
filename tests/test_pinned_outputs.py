"""The benchmark's pinned seed-42 outputs, reproduced through the CLI.

For each benchmark workload, generate -> detect -> plan -> verify -> render
runs in-process with the benchmark's own arguments, and the SHA-256 of every
output must equal the digest pinned in ``perfbench/pinned_seed42.json``.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from tricover.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned_seed42.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    argvs = harness.stage_argvs(harness.WORKLOADS[workload], harness.PINNED_SEED, tmp_path)
    for stage in ("generate", "detect", "plan", "verify", "render"):
        assert main(argvs[stage]) == 0, stage
    digests = harness.digests(tmp_path)
    assert {stage: digests[stage] for stage in PINNED[workload]} == PINNED[workload]
