"""Workloads, pipeline passes, output checks and metrics of the benchmark.

A pass runs the real CLI in-process, one ``tricover.cli.main(argv)`` call
per stage: detect -> plan -> verify -> render, on the files ``generate``
wrote into a work directory. A run starts a few worker processes one after
another (see ``worker.py``); each sets up, then makes timed passes until its
share of the run is over.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from time import monotonic

import reference
import tracer as tracing
import worker

# The timed stages, whose sum is ``pipeline_s``.
STAGES = worker.STAGES
OUTPUTS = {"detect": "detect.json", "plan": "plan.json", "verify": "verify.json", "render": "field.svg"}
# Threshold the program uses by default for ``is_hole`` (s_h > 1e-9 * R^2).
HOLE_EPSILON_FACTOR = 1e-9
PINNED_SEED = 42
PINNED = Path(__file__).with_name("pinned_seed42.json")
# One BLAS/OpenMP thread in every interpreter the benchmark starts.
THREAD_ENV = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"
)


@dataclass(frozen=True)
class Workload:
    """One scenario family on a square field.

    The sensing radius is ``radius_factor * R*`` with the density-scaled
    ``R* = 10 * sqrt(50 / n_stationary)``; mobiles get the same radius.
    """

    n_stationary: int
    n_mobile: int
    radius_factor: float
    samples: int
    side: float = 100.0

    @property
    def radius(self) -> str:
        return f"{self.radius_factor * 10.0 * sqrt(50.0 / self.n_stationary):.9g}"


WORKLOADS = {
    # ~4k cells, mostly exact-fallback route and fully covered: detect and plan dominate.
    "dense-field": Workload(2_000, 50, 1.0, 200_000),
    # Same mesh size, route mix flipped: mostly case formula, ~90% of cells are holes.
    "sparse-field": Workload(2_000, 50, 0.5, 200_000),
    # Small mesh, many mobiles, 5e5 samples: verify is most of the pipeline.
    "verify-heavy": Workload(500, 100, 1.0, 500_000),
}


def stage_argvs(w: Workload, seed: int, work: Path) -> dict[str, list[str]]:
    s, d, p = str(work / "scenario.json"), str(work / "detect.json"), str(work / "plan.json")
    return {
        "generate": [
            "generate", "--width", str(w.side), "--height", str(w.side),
            "--n-stationary", str(w.n_stationary), "--n-mobile", str(w.n_mobile),
            "--radius", w.radius, "--mobile-radius", w.radius, "--seed", str(seed), "--out", s,
        ],
        "detect": ["detect", "--scenario", s, "--out", d],
        "plan": ["plan", "--scenario", s, "--report", d, "--mobile-radius", w.radius, "--out", p],
        "verify": [
            "verify", "--scenario", s, "--report", p, "--samples", str(w.samples),
            "--seed", str(seed), "--out", str(work / "verify.json"),
        ],
        "render": ["render", "--scenario", s, "--report", p, "--out", str(work / "field.svg")],
    }


# --- environment ---------------------------------------------------------------


def child_env(src: Path) -> dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "threads": THREAD_ENV,
        "workload": workload,
        "seed": seed,
    }


# --- output checks ----------------------------------------------------------------


def digests(work: Path) -> dict[str, str]:
    out = {}
    for stage, name in (("generate", "scenario.json"), *OUTPUTS.items()):
        path = work / name
        out[stage] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return out


def check_outputs(work: Path, w: Workload, seed: int) -> dict[str, str]:
    """Invariants every seed must satisfy; returns {stage: first failure}."""
    bad: dict[str, str] = {}

    def load(name: str):
        try:
            return json.loads((work / name).read_bytes())
        except (OSError, ValueError):
            return None  # indexing None below reports it as malformed

    scenario_bytes = (work / "scenario.json").read_bytes() if (work / "scenario.json").exists() else b""
    scenario_hash = hashlib.sha256(scenario_bytes).hexdigest()
    try:
        radius = json.loads(scenario_bytes)["field"]["sensing_radius"]
    except (ValueError, KeyError, TypeError):
        return {stage: "no usable scenario" for stage in worker.PIPELINE}
    eps = HOLE_EPSILON_FACTOR * radius * radius

    detect = load("detect.json")
    tris = holes = served = None
    try:
        tris = detect["triangles"]
        if detect["scenario_hash"] != scenario_hash:
            bad["detect"] = "scenario hash differs"
        elif len(tris) != detect["mesh"]["triangles"]:
            bad["detect"] = f"{len(tris)} triangles but mesh has {detect['mesh']['triangles']}"
        elif any(t["s_h"] < 0 for t in tris):
            bad["detect"] = "negative s_h"
        elif any(t["is_hole"] != (t["s_h"] > eps) for t in tris):
            bad["detect"] = "is_hole disagrees with s_h > 1e-9 R^2"
        holes = sum(1 for t in tris if t["is_hole"])
    except (TypeError, KeyError) as exc:
        bad["detect"] = f"malformed report: {exc!r}"

    plan = load("plan.json")
    try:
        section = plan["plan"]
        served = len(section["assignments"])
        if plan["triangles"] != tris:
            bad["plan"] = "triangles differ from the detect report"
        elif holes is not None and served != min(holes, w.n_mobile):
            bad["plan"] = f"{served} assignments for {holes} holes and {w.n_mobile} mobiles"
        elif holes is not None and served + len(section["unserved"]) != holes:
            bad["plan"] = "served + unserved != holes"
    except (TypeError, KeyError) as exc:
        bad["plan"] = f"malformed report: {exc!r}"

    verify = load("verify.json")
    try:
        v = verify["verify"]
        if v["samples"] != w.samples or v["seed"] != seed:
            bad["verify"] = f"samples/seed {v['samples']}/{v['seed']} != {w.samples}/{seed}"
        elif not (0.0 <= v["before"] <= 1.0 and 0.0 <= v["after"] <= 1.0):
            bad["verify"] = "fraction outside [0, 1]"
    except (TypeError, KeyError) as exc:
        bad["verify"] = f"malformed report: {exc!r}"

    try:
        svg = (work / "field.svg").read_text(encoding="utf-8")
    except OSError as exc:
        svg = ""
        bad["render"] = f"unreadable: {exc}"
    if "render" not in bad:
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            bad["render"] = "not an SVG document"
        elif holes is not None and svg.count('<polygon class="hole ') != holes:
            bad["render"] = "hole polygon count differs from the report"
        elif served is not None and svg.count('<circle class="target ') != served:
            bad["render"] = "target count differs from the plan"
    return bad


class Checker:
    """Checks a run's outputs: invariants on each scenario's first outputs,
    byte identity of every later pass with them, and the pinned digests for
    the first scenario at the pinned seed."""

    def __init__(self, name: str, w: Workload, seeds: list[int]) -> None:
        self.w, self.seeds = w, seeds
        pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(name)
        self.expected = pinned if seeds[0] == PINNED_SEED else None
        self.first: list[dict[str, str] | None] = [None] * len(seeds)

    def check(self, dirs: list[Path], seen: list[list[dict[str, str]]]) -> tuple[int, int]:
        """(checks made, checks failed) on one worker's outputs. ``seen``
        lists, per scenario, the distinct digests the worker's passes wrote;
        ``dirs`` hold the last pass's files."""
        made, bad = 0, []
        for i, digs in enumerate(seen):
            if not digs:
                continue  # the worker made no pass on this scenario
            if self.first[i] is None:
                self.first[i] = digs[0]
                made += 1
                for stage, why in check_outputs(dirs[i], self.w, self.seeds[i]).items():
                    bad.append(f"scenario {i}: {stage}: {why}")
                if i == 0 and self.expected is not None:
                    made += 1
                    wrong = [s for s, d in self.expected.items() if digs[0].get(s) != d]
                    if wrong:
                        bad.append(f"scenario 0: {wrong}: SHA-256 differs from the pinned seed-{PINNED_SEED} digest")
            made += 1
            if any(d != self.first[i] for d in digs):
                bad.append(f"scenario {i}: a pass wrote other bytes than the scenario's first pass")
        for why in bad:
            print(f"check failed: {why}", file=sys.stderr)
        return made, len(bad)


# --- statistics ------------------------------------------------------------------


def describe(name: str, unit: str, value: float, values: list[float], raw: float | None = None) -> str:
    """One metric line: its value (the median), then the count and minimum
    of the values behind it and, for a scaled time, its unscaled median."""
    line = f"{name:<36} {value:>12.6g} {unit:<6} median of {len(values)}, min {min(values, default=0.0):.6g}"
    return line if raw is None else f"{line}, unscaled median {raw:.6g}"


# --- metrics ---------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "detect_s": "s",
    "plan_s": "s",
    "verify_s": "s",
    "render_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "mesh.triangulate_s": "s",
    "mesh.qhull_s": "s",
    "mesh.cells": "count",
    "holes.detect_holes_s": "s",
    "holes.detect_holes.calls": "count",
    "holes.hole_area_s": "s",
    "holes.hole_area_p50_us": "us",
    "holes.hole_area_p99_us": "us",
    "holes.route_case": "count",
    "holes.route_exact": "count",
    "holes.validity_s": "s",
    "holes.classify_s": "s",
    "holes.full_coverage.calls": "count",
    "holes.exact_uncovered_area_s": "s",
    "holes.exact_uncovered_area.calls": "count",
    "holes.exact_useful_ratio": "ratio",
    "geometry.covered_area_s": "s",
    "geometry.covered_area.calls": "count",
    "pipeline.targets_from_report_s": "s",
    "pipeline.triangulate.calls": "count",
    "pipeline.redetect_s": "s",
    "healing.select_target_s": "s",
    "healing.targets": "count",
    "healing.assignment_s": "s",
    "healing.served": "count",
    "healing.unserved": "count",
    "oracle.mc_s": "s",
    "oracle.mc.calls": "count",
    "oracle.kd_build_s": "s",
    "oracle.kd_query_s": "s",
    "oracle.kd_query_points": "count",
    "oracle.mask_s": "s",
    "oracle.samples_drawn": "count",
    "files.load_s": "s",
    "files.save_s": "s",
    "files.canonical_json_s": "s",
    "files.bytes_read": "bytes",
    "files.bytes_written": "bytes",
    "render.render_svg_s": "s",
    "render.svg_bytes": "bytes",
    **{f"cli.{stage}_s": "s" for stage in worker.PIPELINE},
    "trace.overhead": "ratio",
}

# Per-layer values that must repeat exactly between two traced passes.
EXACT = tuple(n for n, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")) + ("holes.exact_useful_ratio",)


def layer_metrics(t: tracing.Tracer) -> dict[str, float]:
    """Per-layer values of one traced pipeline pass (all stages)."""
    hole_us = sorted(d * 1e6 for d in t.durations.get("holes.hole_area", []))
    exact_calls = t.calls("holes.exact_uncovered_area")
    useful = t.calls("holes.exact_uncovered_area", parent="holes.hole_area")
    plan_children = dict(stage="plan", parent="pipeline.targets_from_report")
    kd = t.total_s("oracle.kd_build") + t.total_s("oracle.kd_query")
    m = {
        "mesh.triangulate_s": t.total_s("mesh.triangulate"),
        "mesh.qhull_s": t.total_s("mesh.qhull"),
        "mesh.cells": t.counts["mesh.cells"],
        "holes.detect_holes_s": t.total_s("holes.detect_holes"),
        "holes.detect_holes.calls": t.calls("holes.detect_holes"),
        "holes.hole_area_s": t.total_s("holes.hole_area"),
        "holes.hole_area_p50_us": statistics.median(hole_us) if hole_us else 0.0,
        "holes.hole_area_p99_us": statistics.quantiles(hole_us, n=100)[98] if len(hole_us) > 1 else 0.0,
        "holes.route_case": t.counts["holes.route_case"],
        "holes.route_exact": t.counts["holes.route_exact"],
        "holes.validity_s": t.total_s("holes.case_formula_validity"),
        "holes.classify_s": t.total_s("holes.classify"),
        "holes.full_coverage.calls": t.calls("holes.full_coverage"),
        "holes.exact_uncovered_area_s": t.total_s("holes.exact_uncovered_area"),
        "holes.exact_uncovered_area.calls": exact_calls,
        "holes.exact_useful_ratio": useful / exact_calls if exact_calls else 0.0,
        "geometry.covered_area_s": t.total_s("geometry.triangle_disks_covered_area"),
        "geometry.covered_area.calls": t.calls("geometry.triangle_disks_covered_area"),
        "pipeline.targets_from_report_s": t.total_s("pipeline.targets_from_report"),
        "pipeline.triangulate.calls": t.calls("mesh.triangulate"),
        "pipeline.redetect_s": t.total_s("mesh.triangulate", **plan_children)
        + t.total_s("holes.detect_holes", **plan_children),
        "healing.select_target_s": t.total_s("healing.select_target"),
        "healing.targets": t.calls("healing.select_target"),
        "healing.assignment_s": t.total_s("healing.assignment"),
        "healing.served": t.counts["healing.served"],
        "healing.unserved": t.counts["healing.unserved"],
        "oracle.mc_s": t.total_s("oracle.mc_coverage_fraction"),
        "oracle.mc.calls": t.calls("oracle.mc_coverage_fraction"),
        "oracle.kd_build_s": t.total_s("oracle.kd_build"),
        "oracle.kd_query_s": t.total_s("oracle.kd_query"),
        "oracle.kd_query_points": t.counts["oracle.kd_query_points"],
        "oracle.mask_s": t.total_s("oracle.mc_coverage_fraction") - kd,
        "oracle.samples_drawn": t.counts["oracle.samples_drawn"],
        "files.load_s": t.total_s("files.load_scenario") + t.total_s("files.load_report"),
        "files.save_s": t.total_s("files.save_scenario") + t.total_s("files.save_report"),
        "files.canonical_json_s": t.total_s("files.canonical_json_bytes"),
        "files.bytes_read": t.counts["files.bytes_read"],
        "files.bytes_written": t.counts["files.bytes_written"],
        "render.render_svg_s": t.total_s("render.render_svg"),
        "render.svg_bytes": t.counts["render.svg_bytes"],
    }
    for stage in worker.PIPELINE:
        m[f"cli.{stage}_s"] = t.total_s(f"cli.{stage}")
    return m


# --- runs ------------------------------------------------------------------------


def per_stage_counts(t: tracing.Tracer) -> dict[str, dict[str, int]]:
    """Exact-integral work in each detect pass: the detect stage's own, and
    the one ``plan`` repeats."""
    return {
        stage: {
            "cells": t.calls("holes.hole_area", stage=stage),
            "holes.route_exact": t.calls("holes.exact_uncovered_area", stage=stage, parent="holes.hole_area"),
            "holes.exact_uncovered_area.calls": t.calls("holes.exact_uncovered_area", stage=stage),
        }
        for stage in ("detect", "plan")
    }


WORKER = Path(__file__).with_name("worker.py")
# Workers per run, started one after another; each gives one ``setup_s``.
WORKERS = 3
# Scenarios an untraced run cycles through, so a pass's inputs differ from
# the previous pass's; the first uses the run's seed.
SCENARIOS = 3


def scenario_seeds(seed: int, n: int = SCENARIOS) -> list[int]:
    return [seed + 1000 * i for i in range(n)]


def spawn(argvs: list[dict], dirs: list[Path], src: Path, trace: bool, deadline: float) -> dict | None:
    """Run one worker to ``deadline``; None if it dies or imports tricover
    from elsewhere than ``src``. Earlier outputs are removed first, so a
    failed stage cannot leave a stale file.

    ``out["setup_s"]`` is the time from launching the worker to the end of
    its set-up, on the system-wide monotonic clock: interpreter start,
    ``import tricover.cli``, ``generate`` and the warm-up pass.
    """
    for d in dirs:
        for name in ("scenario.json", *OUTPUTS.values()):
            (d / name).unlink(missing_ok=True)
    spec = {"src": str(src), "dirs": [str(d) for d in dirs], "argvs": argvs, "trace": trace, "deadline": deadline}
    launched = monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        env=child_env(src), cwd=dirs[0], capture_output=True, text=True, timeout=170,
    )
    if proc.stderr.strip():
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if out is None or Path(out["module"]).resolve() != (src / "tricover" / "cli.py").resolve():
        print(f"worker exited {proc.returncode} without a usable result", file=sys.stderr)
        return None
    out["setup_s"] = out["setup_end"] - launched
    return out


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, list[float]]  # every value behind each metric
    notes: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_workers(name: str, w: Workload, seeds: list[int], seconds: float, work: Path, src: Path,
                trace: bool) -> tuple[list[dict], int, int, list]:
    """Start WORKERS workers one after another; worker r stops near (r + 1)
    / WORKERS of ``seconds``. Returns the results of the workers that finished,
    the stage calls and checks attempted and failed, and each scenario's
    output digests."""
    dirs = [work / f"scenario{i}" for i in range(len(seeds))]
    for d in dirs:
        d.mkdir()
    argvs = [stage_argvs(w, s, d) for s, d in zip(seeds, dirs)]
    checker = Checker(name, w, seeds)
    outs, attempted, failed = [], 0, 0
    start = monotonic()
    for r in range(WORKERS):
        out = spawn(argvs, dirs, src, trace, start + seconds * (r + 1) / WORKERS)
        if out is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        made, bad = checker.check(dirs, out["digests"])
        attempted += out["attempted"] + made
        failed += len(out["failed"]) + bad
        outs.append(out)
    return outs, attempted, failed, checker.first


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pipeline_s(times: dict[str, float]) -> float:
    return sum(times[s] for s in STAGES)


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured when the reference kernel took ``ref_s``, scaled to
    the reference host (see ``reference.py``)."""
    return seconds * reference.REF_S / ref_s


def untraced_run(name: str, w: Workload, seed: int, seconds: float, work: Path, src: Path) -> Result:
    """Timed passes cycling through SCENARIOS scenarios. Each stage metric
    and ``pipeline_s`` is the median over every timed pass of the run;
    ``setup_s`` and ``peak_rss_mb`` are medians over the workers. Times are
    scaled to the reference host: a stage call by the kernel timed right
    before it, a worker's set-up by the median kernel time of its passes.
    The unscaled samples are kept in the record."""
    seeds = scenario_seeds(seed)
    outs, attempted, failed, outputs = run_workers(name, w, seeds, seconds, work, src, trace=False)
    passes = [p for out in outs for p in out["passes"]]
    samples = {"setup_s": [
        scaled(out["setup_s"], statistics.median(p["refs"][s] for p in out["passes"] for s in STAGES)) for out in outs
    ]}
    samples.update({f"{s}_s": [scaled(p["times"][s], p["refs"][s]) for p in passes] for s in STAGES})
    samples["pipeline_s"] = [sum(scaled(p["times"][s], p["refs"][s]) for s in STAGES) for p in passes]
    samples["peak_rss_mb"] = [out["peak_rss_mb"] for out in outs]
    metrics = {k: median_or_zero(v) for k, v in samples.items()}
    raw = {"setup_s": [out["setup_s"] for out in outs], **{f"{s}_s": [p["times"][s] for p in passes] for s in STAGES}}
    raw["pipeline_s"] = [pipeline_s(p["times"]) for p in passes]
    raw["reference_s"] = [p["refs"][s] for p in passes for s in STAGES]
    notes = {
        "seeds": seeds,
        "digests": outputs,
        "passes_per_worker": [len(out["passes"]) for out in outs],
        "raw_medians": {k: median_or_zero(v) for k, v in raw.items()},
        "raw_samples": raw,
    }
    return Result(attempted, failed, metrics, samples, notes)


def traced_run(name: str, w: Workload, seed: int, seconds: float, work: Path, src: Path) -> Result:
    """Untraced and traced passes in turn, on the seed's scenario alone.
    Each metric is the median over the traced passes.

    The byte-identity check makes traced outputs equal the untraced ones,
    and every count must repeat exactly between traced passes.
    """
    outs, attempted, failed, outputs = run_workers(name, w, [seed], seconds, work, src, trace=True)
    traced = [p for out in outs for p in out["passes"] if p["trace"]]
    plain = [p for out in outs for p in out["passes"] if not p["trace"]]
    per_pass = [p["layers"] for p in traced]
    if not per_pass:
        attempted, failed = attempted + 1, failed + 1
        per_pass = [dict.fromkeys(PER_LAYER_UNITS, 0.0)]
    attempted += 1
    differ = [key for key in EXACT if len({m[key] for m in per_pass}) != 1]
    if differ:
        print(f"counts differ between traced passes: {differ}", file=sys.stderr)
        failed += 1
    samples = {k: [m[k] for m in per_pass] for k in per_pass[0]}
    untraced_s = median_or_zero([pipeline_s(p["times"]) for p in plain])
    traced_s = median_or_zero([pipeline_s(p["times"]) for p in traced])
    samples["trace.overhead"] = [traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0]
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    first = traced[0] if traced else {}
    notes = {"digests": outputs, "per_stage_counts": first.get("per_stage_counts"), "spans": first.get("spans")}
    return Result(attempted, failed, metrics, samples, notes)
