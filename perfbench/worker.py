"""Pipeline passes in one interpreter, until a deadline.

Usage: ``python3 worker.py '<spec json>'`` with keys ``src``, ``dirs`` (one
work directory per scenario), ``argvs`` (one ``{stage: argv}`` per
scenario), ``trace`` and ``deadline`` (a ``time.monotonic()`` reading).
Prints one JSON line.

Set-up is everything before the first timed call: import ``tricover.cli``,
``generate`` every scenario, then one untimed warm-up pass of the four later
stages on the first scenario, so lazy imports, first-time allocation and
caches are paid there and not in a timed call. The worker reports the
monotonic reading at the end of set-up and its peak RSS at that point, the
peak of one pipeline pass.

Then it makes timed passes, cycling through the scenarios, until another
pass, as long as the median one so far, would overrun the deadline (at least
one pass). Untraced, it times ``reference.kernel()`` right before each stage
call, to gauge the host's speed at that moment. Traced, every other pass runs
under the tracer and reports its per-layer values. After every pass the
worker hashes the outputs, so the harness can check that each pass wrote the
same bytes.
"""
from __future__ import annotations

import json
import resource
import sys
from time import monotonic, perf_counter
from typing import Any, Callable

PIPELINE = ("generate", "detect", "plan", "verify", "render")
STAGES = PIPELINE[1:]


def run_stage(main: Callable, argv: list[str], tracer: Any = None) -> tuple[float, bool]:
    """Time one ``main(argv)`` call; ok means exit 0 and no exception."""
    start = perf_counter()
    try:
        rc = main(argv) if tracer is None else tracer.root(argv[0], main, argv)
    except Exception as exc:  # a crash is a failed call, not a harness crash
        print(f"stage {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = -1
    return perf_counter() - start, rc == 0


def run_pass(main: Callable, argvs: dict, tracer: Any = None, stages=PIPELINE,
             gauge: Callable[[], float] | None = None) -> tuple[dict, list, dict]:
    """Call each stage once, in order; returns ({stage: s}, failed stages,
    {stage: gauge reading}). ``gauge``, if given, is read right before each
    call."""
    times, failed, refs = {}, [], {}
    for stage in stages:
        if gauge is not None:
            refs[stage] = gauge()
        times[stage], ok = run_stage(main, argvs[stage], tracer)
        if not ok:
            failed.append(stage)
    return times, failed, refs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import tricover.cli

    cli, scenarios = tricover.cli.main, spec["argvs"]
    failed: list[str] = []
    for argvs in scenarios:
        failed += run_pass(cli, argvs, stages=PIPELINE[:1])[1]
    failed += run_pass(cli, scenarios[0], stages=STAGES)[1]
    setup_end, rss = monotonic(), peak_rss_mb()
    attempted = len(scenarios) + len(STAGES)

    # The benchmark's own modules are imported only after set-up.
    from pathlib import Path
    from statistics import median

    import harness
    import reference
    import tracer as tracing

    dirs = [Path(d) for d in spec["dirs"]]
    seen = [[harness.digests(dirs[0])]] + [[] for _ in dirs[1:]]
    passes: list[dict] = []
    took: list[float] = []
    # Traced, each step is an untraced pass and a traced one of the same scenario.
    modes = (False, True) if spec["trace"] else (False,)
    while not took or monotonic() + median(took) <= spec["deadline"]:
        began = monotonic()
        i = len(took) % len(scenarios)
        for traced in modes:
            record: dict[str, Any] = {"scenario": i, "trace": traced}
            if traced:
                t = tracing.Tracer()
                with tracing.installed(t):
                    record["times"], bad, _ = run_pass(cli, scenarios[i], t)
                record["layers"] = harness.layer_metrics(t)
                if not any(p["trace"] for p in passes):
                    record["per_stage_counts"], record["spans"] = harness.per_stage_counts(t), t.dump()
            else:
                gauge = None if spec["trace"] else reference.seconds
                record["times"], bad, record["refs"] = run_pass(cli, scenarios[i], stages=STAGES, gauge=gauge)
            failed += bad
            attempted += len(record["times"])
            passes.append(record)
            got = harness.digests(dirs[i])
            if got not in seen[i]:
                seen[i].append(got)
        took.append(monotonic() - began)
    return {
        "setup_end": setup_end,
        "peak_rss_mb": rss,
        "module": tricover.cli.__file__,
        "attempted": attempted,
        "failed": failed,
        "digests": seen,
        "passes": passes,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
