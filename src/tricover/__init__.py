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
from .geometry import Point
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
from .healing import HealingPlan, plan_relocation, rank_holes, select_targets
from .holes import (
    HoleComputation,
    HoleReports,
    detect_holes,
    hole_area,
    hole_epsilon,
)
from .mesh import TriMesh, triangulate
from .oracle import CoverageEstimate, mc_coverage_fraction
from .pipeline import (
    generate_scenario,
    run_detect,
    run_plan,
    run_verify,
    targets_from_report,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
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
    "TriMesh",
    "TricoverError",
    "UsageError",
    "canonical_json_bytes",
    "detect_holes",
    "generate_scenario",
    "hole_area",
    "hole_epsilon",
    "load_report",
    "load_scenario",
    "mc_coverage_fraction",
    "plan_relocation",
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
    "select_targets",
    "targets_from_report",
    "triangulate",
]
