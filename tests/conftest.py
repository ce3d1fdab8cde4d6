"""Fixtures shared by the test modules."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from tricover import Point, load_scenario, run_detect, run_plan
from tricover.cli import main


def _harness():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import harness
    finally:
        sys.path.pop(0)
    return harness


@pytest.fixture(scope="session")
def workload_samples():
    """The sample count of each benchmark workload's verify stage."""
    return {name: w.samples for name, w in _harness().WORKLOADS.items()}


@pytest.fixture(scope="session")
def workload_scenarios(tmp_path_factory):
    """The scenario of each benchmark workload at each pinned seed."""
    harness = _harness()
    work = tmp_path_factory.mktemp("workloads")
    scenarios = {}
    for name in sorted(harness.WORKLOADS):
        for seed in (42, 1042, 2042, 7):
            argv = harness.stage_argvs(harness.WORKLOADS[name], seed, work)["generate"]
            out = work / f"{name}-{seed}.json"
            argv[argv.index("--out") + 1] = str(out)
            assert main(argv) == 0
            scenarios[name, seed] = load_scenario(out)
    return scenarios


@pytest.fixture(scope="session")
def workload_moves(workload_scenarios):
    """The moves of each workload scenario's own plan, by mobile id, as verify reads them."""
    harness = _harness()
    moves = {}
    for (name, seed), scenario in workload_scenarios.items():
        plan = run_plan(run_detect(scenario), scenario, float(harness.WORKLOADS[name].radius)).plan
        moves[name, seed] = {
            a["mobile_id"]: Point(float(a["target"]["x"]), float(a["target"]["y"]))
            for a in plan["assignments"]
        }
    return moves
