"""The package namespace: ``__all__`` and the public names agree."""
from __future__ import annotations

import ast
import types
from pathlib import Path

import tricover
import tricover.field
import tricover.geometry
import tricover.holes
import tricover.oracle

# What the test oracles may take from the package: data types and the
# error class, no computation.
ORACLE_IMPORTS = {"Point", "TriangleGeom", "InvalidInputError"}


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
    # the oracles, and the test-only helpers that left the package
    names = (
        "heron_area", "triangle_disk_intersection_area", "grid_region_uncovered", "case_label",
        "_label", "make_field", "HoleReport",
    )
    for space in (tricover, tricover.field, tricover.geometry, tricover.holes, tricover.oracle):
        for name in names:
            assert not hasattr(space, name), f"{space.__name__}.{name}"
