"""Deterministic SVG rendering of scenarios, detections, and plans.

Plain string assembly with fixed-precision coordinates: identical inputs
yield byte-identical SVG. Each sensor's coordinates are formatted once,
into one ``{sensor_id: (x, y)}`` table that every disk, marker, hole
polygon, mesh edge and move arrow reads; each plan target, the canvas
size and the stationary radius are formatted once too. Elements carry
class attributes (``site``, ``mobile``, ``disk``, ``mesh-edge``,
``hole case-X``, ``target``, ``move-arrow``) so renders are
machine-checkable.
"""
from __future__ import annotations

from .files import ReportDoc, ScenarioDoc

_CASE_FILL = {
    "A": "#d62728",
    "B": "#ff7f0e",
    "C": "#bcbd22",
    "D": "#9467bd",
    "E": "#8c564b",
    "F": "#2ca02c",
    "G": "#e377c2",
    "H": "#17becf",
    "I": "#1f77b4",
}

_MARGIN_FACTOR = 0.06
_VIEW = 900.0


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def render_svg(scenario: ScenarioDoc, report: ReportDoc | None = None) -> str:
    """Draw the field; with a report, also the mesh, holes, and any plan."""
    field = scenario.field
    if report is not None:
        report.check_scenario(scenario)
    margin = _MARGIN_FACTOR * max(field.width, field.height)
    scale = _VIEW / (max(field.width, field.height) + 2.0 * margin)

    def xy(x: float, y: float) -> tuple[str, str]:
        """Field coordinates (y up) as SVG coordinate text (y down)."""
        return _fmt((x + margin) * scale), _fmt((field.height - y + margin) * scale)

    at = {s.id: xy(s.position.x, s.position.y) for s in (*field.stationary, *field.mobile)}
    w = _fmt((field.width + 2.0 * margin) * scale)
    h = _fmt((field.height + 2.0 * margin) * scale)
    fx, fy = xy(0.0, field.height)
    r = _fmt(field.sensing_radius * scale)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {w} {h}" width="{w}" height="{h}">'
    )
    parts.append(f'<rect class="background" width="{w}" height="{h}" fill="#ffffff"/>')
    parts.append(
        f'<rect class="field" x="{fx}" y="{fy}" '
        f'width="{_fmt(field.width * scale)}" height="{_fmt(field.height * scale)}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>'
    )

    parts.append('<g class="disks">')
    for s in field.stationary:
        x, y = at[s.id]
        parts.append(
            f'<circle class="disk disk-stationary" cx="{x}" cy="{y}" r="{r}" '
            f'fill="#1f77b4" fill-opacity="0.08" stroke="#1f77b4" '
            f'stroke-opacity="0.35" stroke-width="0.6"/>'
        )
    for m in field.mobile:
        x, y = at[m.id]
        parts.append(
            f'<circle class="disk disk-mobile" cx="{x}" cy="{y}" r="{_fmt(m.radius * scale)}" '
            f'fill="#2ca02c" fill-opacity="0.06" stroke="#2ca02c" '
            f'stroke-opacity="0.35" stroke-width="0.6" stroke-dasharray="4 3"/>'
        )
    parts.append("</g>")

    if report is not None and report.triangles is not None:
        entries = sorted(report.triangles, key=lambda t: t["id"])
        parts.append('<g class="holes">')
        for entry in entries:
            if not entry["is_hole"]:
                continue
            coords = " ".join(",".join(at[v]) for v in entry["vertices"])
            case = entry["case"]
            parts.append(
                f'<polygon class="hole case-{case}" points="{coords}" '
                f'fill="{_CASE_FILL[case]}" fill-opacity="0.45" stroke="none"/>'
            )
        parts.append("</g>")

        parts.append('<g class="mesh">')
        edges = set()
        for entry in entries:
            a, b, c = sorted(entry["vertices"])
            edges.update(((a, b), (a, c), (b, c)))
        for a, b in sorted(edges):
            (x1, y1), (x2, y2) = at[a], at[b]
            parts.append(
                f'<line class="mesh-edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#555555" stroke-width="0.8"/>'
            )
        parts.append("</g>")

    if report is not None and report.plan is not None:
        assignments = report.plan["assignments"]
        targets = [xy(a["target"]["x"], a["target"]["y"]) for a in assignments]
        parts.append('<g class="plan">')
        for a, (tx, ty) in zip(assignments, targets):
            x, y = at[a["mobile_id"]]
            parts.append(
                f'<line class="move-arrow" x1="{x}" y1="{y}" x2="{tx}" y2="{ty}" '
                f'stroke="#d62728" stroke-width="1.4" marker-end="url(#arrowhead)"/>'
            )
        for a, (tx, ty) in zip(assignments, targets):
            parts.append(
                f'<circle class="target target-{a["kind"]}" cx="{tx}" cy="{ty}" '
                f'r="5.0" fill="#d62728" stroke="#7f0000" stroke-width="1.0"/>'
            )
        parts.append("</g>")

    parts.append('<g class="sensors">')
    for s in field.stationary:
        x, y = at[s.id]
        parts.append(f'<circle class="site" cx="{x}" cy="{y}" r="3.0" fill="#1f77b4"/>')
    for m in field.mobile:
        # Offset from the formatted centre, which is rounded before the subtraction.
        x, y = at[m.id]
        parts.append(
            f'<rect class="mobile" x="{_fmt(float(x) - 3.0)}" y="{_fmt(float(y) - 3.0)}" '
            f'width="6.000" height="6.000" fill="#2ca02c"/>'
        )
    parts.append("</g>")

    parts.append(
        '<defs><marker id="arrowhead" markerWidth="8" markerHeight="6" '
        'refX="7" refY="3" orient="auto"><path d="M0,0 L8,3 L0,6 Z" '
        'fill="#d62728"/></marker></defs>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
