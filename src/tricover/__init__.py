"""tricover: coverage-hole detection and healing for planar sensor fields."""
from .errors import (
    DegenerateGeometryError,
    DuplicateSiteError,
    InconsistentInputError,
    InsufficientSitesError,
    InvalidInputError,
    TricoverError,
    UsageError,
)
from .field import MobileSensor, Sensor, SensorField
from .geometry import (
    Point,
    TriangleGeom,
    circumcenter,
    incenter,
    triangle_disks_covered_area,
    triangle_from_vertices,
)
from .files import (
    ReportDoc,
    ScenarioDoc,
    canonical_json_bytes,
    load_report,
    load_scenario,
    report_from_dict,
    round_sig,
    save_report,
    save_scenario,
    scenario_from_dict,
)
from .healing import (
    Assignment,
    HealingPlan,
    TargetLocation,
    plan_relocation,
    rank_holes,
    select_target,
)
from .holes import (
    CaseLabel,
    HoleComputation,
    HoleReports,
    detect_holes,
    exact_uncovered_area,
    hole_area,
    hole_epsilon,
)
from .mesh import TriMesh, triangulate
from .oracle import CoverageEstimate, mc_coverage_fraction
from .pipeline import (
    generate_scenario,
    plan_to_dict,
    run_detect,
    run_plan,
    run_verify,
    targets_from_report,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CaseLabel",
    "CoverageEstimate",
    "DegenerateGeometryError",
    "DuplicateSiteError",
    "HealingPlan",
    "HoleComputation",
    "HoleReports",
    "InconsistentInputError",
    "InsufficientSitesError",
    "InvalidInputError",
    "MobileSensor",
    "Point",
    "ReportDoc",
    "ScenarioDoc",
    "Sensor",
    "SensorField",
    "TargetLocation",
    "TriMesh",
    "TriangleGeom",
    "TricoverError",
    "UsageError",
    "canonical_json_bytes",
    "circumcenter",
    "detect_holes",
    "exact_uncovered_area",
    "generate_scenario",
    "hole_area",
    "hole_epsilon",
    "incenter",
    "load_report",
    "load_scenario",
    "mc_coverage_fraction",
    "plan_relocation",
    "plan_to_dict",
    "rank_holes",
    "render_svg",
    "report_from_dict",
    "round_sig",
    "run_detect",
    "run_plan",
    "run_verify",
    "save_report",
    "save_scenario",
    "scenario_from_dict",
    "select_target",
    "targets_from_report",
    "triangle_disks_covered_area",
    "triangle_from_vertices",
    "triangulate",
]
