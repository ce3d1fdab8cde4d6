"""SVG rendering tests: determinism, element inventory and formatting work."""
from __future__ import annotations

import hashlib
from math import sqrt

import pytest

import tricover.render
from fields import make_field
from tricover import (
    InconsistentInputError,
    ScenarioDoc,
    generate_scenario,
    render_svg,
    run_detect,
    run_plan,
)


def equilateral_scenario(side=1.9, radius=1.0, mobiles=((3, 0.1, 3.9, 1.0),)):
    field = make_field(
        4.0,
        4.0,
        radius,
        [(0, 0.5, 0.5), (1, 0.5 + side, 0.5), (2, 0.5 + side / 2, 0.5 + side * sqrt(3) / 2)],
        list(mobiles),
    )
    return ScenarioDoc(field=field, meta={})


def test_svg_scenario_only_structure():
    scenario = equilateral_scenario()
    svg = render_svg(scenario)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('class="site"') == 3
    assert svg.count('class="disk disk-stationary"') == 3
    assert svg.count('class="disk disk-mobile"') == 1
    assert svg.count('class="mobile"') == 1
    # no report: no mesh, holes, or plan layers
    assert "mesh-edge" not in svg
    assert 'class="hole' not in svg
    assert "move-arrow" not in svg


def test_svg_with_detection_report():
    scenario = equilateral_scenario()
    report = run_detect(scenario)
    svg = render_svg(scenario, report)
    # one triangle: three mesh edges, one case-I hole polygon
    assert svg.count('class="mesh-edge"') == 3
    assert svg.count('<polygon class="hole') == 1
    assert svg.count("case-I") == 1
    assert "move-arrow" not in svg  # no plan section yet


def test_svg_with_plan():
    scenario = equilateral_scenario()
    report = run_plan(run_detect(scenario), scenario, mobile_radius=1.0)
    svg = render_svg(scenario, report)
    assert svg.count('class="move-arrow"') == 1
    assert svg.count('class="target target-circumcenter"') == 1
    assert "arrowhead" in svg


def test_svg_no_arrows_without_mobiles():
    scenario = equilateral_scenario(mobiles=())
    report = run_plan(run_detect(scenario), scenario, mobile_radius=1.0)
    assert report.plan["assignments"] == []
    assert report.plan["unserved"] == [0]
    svg = render_svg(scenario, report)
    assert "move-arrow" not in svg
    assert 'class="target' not in svg


def seeded_scenario():
    return generate_scenario(
        width=30.0,
        height=20.0,
        n_stationary=12,
        n_mobile=2,
        sensing_radius=3.0,
        mobile_radius=3.0,
        seed=5,
    )


def test_svg_deterministic():
    scenario = seeded_scenario()
    report = run_plan(run_detect(scenario), scenario, mobile_radius=3.0)
    assert render_svg(scenario, report) == render_svg(scenario, report)


def test_svg_counts_scale_with_scenario():
    scenario = seeded_scenario()
    report = run_detect(scenario)
    svg = render_svg(scenario, report)
    assert svg.count('class="site"') == 12
    assert svg.count('class="disk disk-mobile"') == 2
    n_holes = sum(1 for t in report.triangles if t["is_hole"])
    assert svg.count('<polygon class="hole') == n_holes


def test_svg_rejects_mismatched_report():
    scenario = equilateral_scenario()
    other = equilateral_scenario(side=1.8)
    report = run_detect(other)
    with pytest.raises(InconsistentInputError):
        render_svg(scenario, report)


def test_svg_no_negative_zero_coordinates():
    scenario = equilateral_scenario()
    report = run_plan(run_detect(scenario), scenario, mobile_radius=1.0)
    svg = render_svg(scenario, report)
    assert "-0.000" not in svg


def test_svg_formats_each_coordinate_once(monkeypatch):
    scenario = seeded_scenario()
    report = run_plan(run_detect(scenario), scenario, mobile_radius=3.0)
    calls = 0
    fmt = tricover.render._fmt

    def counting_fmt(v):
        nonlocal calls
        calls += 1
        return fmt(v)

    monkeypatch.setattr(tricover.render, "_fmt", counting_fmt)
    render_svg(scenario, report)
    field = scenario.field
    sensors, mobiles = len(field.stationary) + len(field.mobile), len(field.mobile)
    assignments = len(report.plan["assignments"])
    assert assignments > 0
    # x and y per sensor; radius and marker corner per mobile; x and y per
    # target; canvas size, field frame and stationary radius.
    assert calls <= 2 * sensors + 3 * mobiles + 2 * assignments + 8


# SHA-256 of the renders without a plan, which the benchmark's pinned
# outputs do not cover.
PINNED_RENDERS = {
    "scenario": "c22776f049e0331542351c1d8323d02c0b146696a65831c983b1bce61fa6b53f",
    "detect": "31e0d7a505de5443013ad1e477dc8ffcaad7e019287d953d2a3c14bdaa712f32",
}


@pytest.mark.parametrize("mode", sorted(PINNED_RENDERS))
def test_svg_without_plan_matches_pinned_digest(mode):
    scenario = seeded_scenario()
    report = run_detect(scenario) if mode == "detect" else None
    svg = render_svg(scenario, report)
    assert hashlib.sha256(svg.encode()).hexdigest() == PINNED_RENDERS[mode]
