"""The package namespace: ``__all__`` and the public names agree."""
from __future__ import annotations

import types

import tricover


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
