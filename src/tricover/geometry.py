"""The plane's point type, the degeneracy bound of a triangle, and ``math``
functions over columns.

A triangle's geometry is computed once, as the mesh's columns
(``mesh._columns``): detect reads them for every cell and plan for the
served holes. Their scalar reference, one triangle at a time, is the tests'
``triangle_from_vertices`` (``tests/fields.py``).

Lengths are plain floats, areas are length squared.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# A triangle is degenerate when area < _DEGENERACY_FACTOR * (longest side)^2.
_DEGENERACY_FACTOR = 1e-12


class Point(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


def _mapped(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function, of each element of ``columns``, in
    their shape (empty columns give an empty one). numpy's ``hypot``,
    ``arccos`` and the like round some inputs differently from ``math``'s."""
    first = columns[0]
    values = map(fn, *(column.ravel().tolist() for column in columns))
    return np.fromiter(values, float, first.size).reshape(first.shape)
