"""Benchmark of the tricover CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload dense-field --seed 42 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the count of values behind it, and the
environment. The full record (every sample, unscaled samples, output
digests, aggregated spans) is written to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tricover" / "cli.py").is_file():
        print(f"perfbench: no tricover sources under {SRC}", file=sys.stderr)
        return 2
    w = harness.WORKLOADS[args.workload]
    runs = ROOT / ".perfbench_work"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        if args.trace:
            result = harness.traced_run(args.workload, w, args.seed, args.seconds, work, SRC)
            units = harness.PER_LAYER_UNITS
        else:
            result = harness.untraced_run(args.workload, w, args.seed, args.seconds, work, SRC)
            units = harness.END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = harness.environment(args.workload, args.seed)
    record = {"environment": env, "trace": args.trace, "attempted": result.attempted,
              "failed": result.failed, "metrics": result.metrics, "samples": result.samples, **result.notes}
    (runs / "results").mkdir(exist_ok=True)
    out = runs / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    raw = result.notes.get("raw_medians", {})
    for name, unit in units.items():
        print(harness.describe(name, unit, result.metrics[name], result.samples[name], raw.get(name)))
    print(f"failed_ops {result.failed}/{result.attempted} stage calls and checks")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
