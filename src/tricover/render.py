"""Deterministic SVG rendering of scenarios, detections, and plans.

Plain string assembly with fixed-precision coordinates: identical inputs
yield byte-identical SVG. Elements carry class attributes (``site``,
``mobile``, ``disk``, ``mesh-edge``, ``hole case-X``, ``target``,
``move-arrow``) so renders are machine-checkable.
"""
from __future__ import annotations

from .field import SensorField
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


class _Canvas:
    """Maps field coordinates (y up) to SVG coordinates (y down)."""

    def __init__(self, field: SensorField):
        margin = _MARGIN_FACTOR * max(field.width, field.height)
        self.scale = _VIEW / (max(field.width, field.height) + 2.0 * margin)
        self.margin = margin
        self.height = field.height
        self.w = (field.width + 2.0 * margin) * self.scale
        self.h = (field.height + 2.0 * margin) * self.scale

    def x(self, v: float) -> str:
        return _fmt((v + self.margin) * self.scale)

    def y(self, v: float) -> str:
        return _fmt((self.height - v + self.margin) * self.scale)

    def r(self, v: float) -> str:
        return _fmt(v * self.scale)


def render_svg(scenario: ScenarioDoc, report: ReportDoc | None = None) -> str:
    """Draw the field; with a report, also the mesh, holes, and any plan."""
    field = scenario.field
    if report is not None:
        report.check_scenario(scenario)
    cv = _Canvas(field)
    positions = {s.id: s.position for s in field.stationary}
    mobile_pos = {m.id: m.position for m in field.mobile}

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(cv.w)} {_fmt(cv.h)}" '
        f'width="{_fmt(cv.w)}" height="{_fmt(cv.h)}">'
    )
    parts.append(f'<rect class="background" width="{_fmt(cv.w)}" height="{_fmt(cv.h)}" fill="#ffffff"/>')
    parts.append(
        f'<rect class="field" x="{cv.x(0.0)}" y="{cv.y(field.height)}" '
        f'width="{cv.r(field.width)}" height="{cv.r(field.height)}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>'
    )

    parts.append('<g class="disks">')
    for s in field.stationary:
        parts.append(
            f'<circle class="disk disk-stationary" cx="{cv.x(s.position.x)}" '
            f'cy="{cv.y(s.position.y)}" r="{cv.r(field.sensing_radius)}" '
            f'fill="#1f77b4" fill-opacity="0.08" stroke="#1f77b4" '
            f'stroke-opacity="0.35" stroke-width="0.6"/>'
        )
    for m in field.mobile:
        parts.append(
            f'<circle class="disk disk-mobile" cx="{cv.x(m.position.x)}" '
            f'cy="{cv.y(m.position.y)}" r="{cv.r(m.radius)}" '
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
            pts = (positions[v] for v in entry["vertices"])
            coords = " ".join(f"{cv.x(p.x)},{cv.y(p.y)}" for p in pts)
            case = entry["case"]
            fill = _CASE_FILL.get(case, "#7f7f7f")
            parts.append(
                f'<polygon class="hole case-{case}" points="{coords}" '
                f'fill="{fill}" fill-opacity="0.45" stroke="none"/>'
            )
        parts.append("</g>")

        parts.append('<g class="mesh">')
        edges = set()
        for entry in entries:
            ids = entry["vertices"]
            for a, b in ((ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])):
                edges.add((min(a, b), max(a, b)))
        for a, b in sorted(edges):
            pa, pb = positions[a], positions[b]
            parts.append(
                f'<line class="mesh-edge" x1="{cv.x(pa.x)}" y1="{cv.y(pa.y)}" '
                f'x2="{cv.x(pb.x)}" y2="{cv.y(pb.y)}" '
                f'stroke="#555555" stroke-width="0.8"/>'
            )
        parts.append("</g>")

    if report is not None and report.plan is not None:
        parts.append('<g class="plan">')
        for a in report.plan["assignments"]:
            src = mobile_pos[a["mobile_id"]]
            tx, ty = a["target"]["x"], a["target"]["y"]
            parts.append(
                f'<line class="move-arrow" x1="{cv.x(src.x)}" y1="{cv.y(src.y)}" '
                f'x2="{cv.x(tx)}" y2="{cv.y(ty)}" stroke="#d62728" '
                f'stroke-width="1.4" marker-end="url(#arrowhead)"/>'
            )
        for a in report.plan["assignments"]:
            tx, ty = a["target"]["x"], a["target"]["y"]
            kind = a["kind"]
            parts.append(
                f'<circle class="target target-{kind}" cx="{cv.x(tx)}" '
                f'cy="{cv.y(ty)}" r="5.0" fill="#d62728" stroke="#7f0000" '
                f'stroke-width="1.0"/>'
            )
        parts.append("</g>")

    parts.append('<g class="sensors">')
    for s in field.stationary:
        parts.append(
            f'<circle class="site" cx="{cv.x(s.position.x)}" '
            f'cy="{cv.y(s.position.y)}" r="3.0" fill="#1f77b4"/>'
        )
    for m in field.mobile:
        parts.append(
            f'<rect class="mobile" x="{_fmt(float(cv.x(m.position.x)) - 3.0)}" '
            f'y="{_fmt(float(cv.y(m.position.y)) - 3.0)}" width="6.000" '
            f'height="6.000" fill="#2ca02c"/>'
        )
    parts.append("</g>")

    parts.append(
        '<defs><marker id="arrowhead" markerWidth="8" markerHeight="6" '
        'refX="7" refY="3" orient="auto"><path d="M0,0 L8,3 L0,6 Z" '
        'fill="#d62728"/></marker></defs>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
