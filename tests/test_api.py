"""The package namespace: ``__all__`` and the public names agree, no
module imports a name it does not use, and no package module keeps a
helper that nothing uses."""
from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import tricover

# What the test oracles may take from the package: data types and the
# error classes, no computation.
ORACLE_IMPORTS = {"Point", "InvalidInputError", "DegenerateGeometryError"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tricover"


def test_all_names_resolve_once():
    assert len(tricover.__all__) == len(set(tricover.__all__))
    for name in tricover.__all__:
        assert hasattr(tricover, name), name


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(tricover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(tricover.__all__)


def test_oracles_stay_out_of_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "tricover" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tricover":
            imported.update(a.name for a in node.names)
    assert imported <= ORACLE_IMPORTS
    # the oracles, and the test-only helpers and types that left the package
    names = (
        "heron_area", "triangle_disk_intersection_area", "grid_region_uncovered", "case_label",
        "_label", "make_field", "HoleReport", "lens_area", "_segment_signed", "_clamp01",
        "_case_value", "case_value", "case_formula_validity", "ValidityFlags",
        "_sectors_contained", "_min_enclosing_radius", "point_segment_distance",
        "triangle_disks_covered_area", "exact_uncovered_area", "_require_analysable",
        "_ccw_vertices", "TriangleGeom", "triangle_from_vertices", "_require_finite",
        "circumcenter", "incenter", "select_target", "TargetLocation", "Assignment",
        "plan_to_dict", "CaseLabel",
    )
    spaces = [
        importlib.import_module("tricover" if path.stem == "__init__" else f"tricover.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
    ]
    assert len(spaces) > 10
    for space in spaces:
        for name in names:
            assert not hasattr(space, name), f"{space.__name__}.{name}"
    # the per-cell triangle objects, which detection no longer builds
    assert not hasattr(tricover.TriMesh, "geoms")
    # the field's area, which no production line read
    assert not hasattr(tricover.SensorField, "area")


def test_files_imports_no_computation_layer():
    # the report's strings live in ``files``, which takes from the package
    # only the errors, the field and the point type
    tree = ast.parse((PACKAGE / "files.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "tricover" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "tricover"
    assert imported == {"errors", "field", "geometry"}


def test_every_imported_name_is_used():
    # ``__init__.py`` imports to re-export; the benchmark keeps its own rules
    root = Path(__file__).parent
    modules = sorted(root.glob("*.py")) + sorted(PACKAGE.glob("*.py"))
    unused = []
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused


def test_every_private_helper_is_used():
    # a top-level function, class or assignment of a package module must be
    # read somewhere in the package, by name or as an attribute; a public
    # one may instead be exported in ``__all__``
    defined, loaded = [], set(tricover.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            defined += [(path.name, n) for n in names if not n.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in loaded] == []


# The public functions of package modules that ``__all__`` does not export:
# the CLI's entry point and the length checks that several layers share.
PUBLIC_HELPERS = {"cli.main", "field.check_length", "field.check_field_size", "healing.check_mobile_radius"}


def test_layer_modules_keep_their_helpers_private():
    # The benchmark's tracer wraps every public function of a layer module,
    # so a helper made public by mistake would time each of its calls and
    # add a span the benchmark does not know.
    public = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                public.add(f"{path.stem}.{node.name}")
    assert {name for name in public if name.split(".")[1] not in tricover.__all__} == PUBLIC_HELPERS


def test_readme_names_only_attributes_that_exist():
    # every `module.name` or `module._name` the README cites whose module
    # is a package module names an attribute of that module
    modules = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    cited = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", readme) if m in modules]
    assert cited
    missing = [
        f"{m}.{n}" for m, n in cited if not hasattr(importlib.import_module(f"tricover.{m}"), n)
    ]
    assert missing == []
