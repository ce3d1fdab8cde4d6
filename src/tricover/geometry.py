"""The plane's point type and the degeneracy bound of a triangle.

A triangle's geometry is computed once, as the mesh's columns
(``mesh._columns``): detect reads them for every cell and plan for the
served holes. Their scalar reference, one triangle at a time, is the tests'
``triangle_from_vertices`` (``tests/fields.py``).

Lengths are plain floats, areas are length squared.
"""
from __future__ import annotations

from typing import NamedTuple

# A triangle is degenerate when area < _DEGENERACY_FACTOR * (longest side)^2.
_DEGENERACY_FACTOR = 1e-12


class Point(NamedTuple):
    """A point in the plane."""

    x: float
    y: float
