"""Per-layer spans and counters, recorded by wrappers installed from outside.

``installed(tracer)`` replaces every public function of the tricover layer
modules, in every ``tricover.*`` namespace that binds it, with a timing
wrapper; it also proxies the three library calls the layers delegate to
(``Delaunay``, ``linear_sum_assignment``, ``cKDTree``). Calls between
modules (``pipeline`` -> ``holes``) and inside one module (``hole_area`` ->
``exact_uncovered_area``) are both captured, because each looks the name up
in a module namespace at call time. Every replaced name is restored when the
context exits.

The ``cli`` layer is not wrapped: the harness opens one root span
``cli.<stage>`` around each ``main(argv)`` call, which is that layer's span.

Spans are aggregated in memory by (stage, parent span, span) rather than
kept one by one: a detect pass on 10k sites makes several hundred thousand
calls.
"""
from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

# Package modules, in pipeline order. ``field`` and ``errors`` hold data
# types and exceptions only.
LAYERS = ("cli", "pipeline", "files", "mesh", "holes", "geometry", "healing", "oracle", "render")

Hook = Callable[["Tracer", float, tuple, dict, Any], None]


class Tracer:
    """Aggregated spans, exact counters and per-call durations of one pass."""

    def __init__(self) -> None:
        # (stage, parent span name or None, span name) -> [calls, total_s, child_s]
        self.spans: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        self.stage: str | None = None
        self._stack: list[list] = []  # open spans: [name, child_s]

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook: Hook | None = None) -> Any:
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            if parent is not None:
                parent[1] += elapsed
            key = (self.stage, parent[0] if parent is not None else None, name)
            rec = self.spans.get(key)
            if rec is None:
                rec = self.spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += frame[1]
        if hook is not None:
            hook(self, elapsed, args, kwargs, result)
        return result

    def root(self, stage: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as the root span ``cli.<stage>``."""
        self.stage = stage
        try:
            return self.call(f"cli.{stage}", fn, args, {})
        finally:
            self.stage = None

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, hook)

        return wrapper

    # --- queries -----------------------------------------------------------

    def _select(self, name: str, stage: str | None = None, parent: str | None = None):
        for (st, par, nm), rec in self.spans.items():
            if nm == name and (stage is None or st == stage) and (parent is None or par == parent):
                yield rec

    def calls(self, name: str, **where: str) -> int:
        return sum(rec[0] for rec in self._select(name, **where))

    def total_s(self, name: str, **where: str) -> float:
        return sum(rec[1] for rec in self._select(name, **where))

    def dump(self) -> list[dict]:
        """Aggregated spans as JSON-able records, with self time."""
        return [
            {
                "stage": st,
                "parent": par,
                "span": nm,
                "calls": rec[0],
                "total_s": rec[1],
                "self_s": rec[1] - rec[2],
            }
            for (st, par, nm), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]


# --- counters recorded on return ------------------------------------------------


def _path_arg(args: tuple, kwargs: dict, index: int) -> str:
    return kwargs["path"] if "path" in kwargs else args[index]


def _count_cells(t: Tracer, _e: float, _a: tuple, _k: dict, mesh: Any) -> None:
    t.counts["mesh.cells"] += len(mesh.cells)


def _count_route(t: Tracer, elapsed: float, _a: tuple, _k: dict, comp: Any) -> None:
    route = "holes.route_case" if comp.method == "case-formula" else "holes.route_exact"
    t.counts[route] += 1
    t.durations.setdefault("holes.hole_area", []).append(elapsed)


def _count_plan(t: Tracer, _e: float, _a: tuple, _k: dict, plan: Any) -> None:
    t.counts["healing.served"] += len(plan.assignments)
    t.counts["healing.unserved"] += len(plan.unserved)


def _count_samples(t: Tracer, _e: float, _a: tuple, _k: dict, est: Any) -> None:
    t.counts["oracle.samples_drawn"] += est.samples


def _count_read(t: Tracer, _e: float, args: tuple, kwargs: dict, _r: Any) -> None:
    t.counts["files.bytes_read"] += os.path.getsize(_path_arg(args, kwargs, 0))


def _count_written(t: Tracer, _e: float, args: tuple, kwargs: dict, _r: Any) -> None:
    t.counts["files.bytes_written"] += os.path.getsize(_path_arg(args, kwargs, 1))


def _count_svg(t: Tracer, _e: float, _a: tuple, _k: dict, svg: str) -> None:
    t.counts["render.svg_bytes"] += len(svg.encode("utf-8"))


def _count_query(t: Tracer, _e: float, args: tuple, kwargs: dict, _r: Any) -> None:
    t.counts["oracle.kd_query_points"] += len(kwargs["x"] if "x" in kwargs else args[0])


HOOKS: dict[str, Hook] = {
    "mesh.triangulate": _count_cells,
    "holes.hole_area": _count_route,
    "healing.plan_relocation": _count_plan,
    "oracle.mc_coverage_fraction": _count_samples,
    "files.load_scenario": _count_read,
    "files.load_report": _count_read,
    "files.save_scenario": _count_written,
    "files.save_report": _count_written,
    "render.render_svg": _count_svg,
}


class _TreeProxy:
    """A cKDTree whose ``query`` is a span; other attributes pass through."""

    def __init__(self, tracer: Tracer, tree: Any) -> None:
        self._tree = tree
        self.query = tracer.wrap("oracle.kd_query", tree.query, _count_query)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._tree, attr)


def namespaces() -> list:
    """The package namespace plus every layer module, imported."""
    return [importlib.import_module("tricover")] + [
        importlib.import_module(f"tricover.{layer}") for layer in LAYERS
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public functions for the duration of the block."""
    spaces = namespaces()
    replaced: list[tuple] = []

    def replace(original: Any, wrapper: Any) -> None:
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    setattr(space, attr, wrapper)
                    replaced.append((space, attr, original))

    layers = dict(zip(LAYERS, spaces[1:]))
    try:
        for layer, space in layers.items():
            if layer == "cli":
                continue
            for attr, fn in list(vars(space).items()):
                if inspect.isfunction(fn) and fn.__module__ == space.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replace(fn, tracer.wrap(name, fn, HOOKS.get(name)))
        mesh, healing, oracle = layers["mesh"], layers["healing"], layers["oracle"]
        replace(mesh.Delaunay, tracer.wrap("mesh.qhull", mesh.Delaunay))
        replace(healing.linear_sum_assignment, tracer.wrap("healing.assignment", healing.linear_sum_assignment))
        build = tracer.wrap("oracle.kd_build", oracle.cKDTree)
        replace(oracle.cKDTree, lambda *a, **k: _TreeProxy(tracer, build(*a, **k)))
        yield tracer
    finally:
        for space, attr, original in reversed(replaced):
            setattr(space, attr, original)
