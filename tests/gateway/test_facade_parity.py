"""The three entity façades expose one method surface.

``Entities`` (blocking), ``AsyncEntities`` (awaitable) and
``SyncEntities`` (blocking, through the gateway runtime) are documented
as interchangeable; a method or parameter present on one and missing on
another is a bug the type checker cannot see.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.entities import AsyncEntities, Entities
from repro.gateway.runtime import SyncEntities

FACADES = [AsyncEntities, SyncEntities]


def surface(cls) -> dict[str, list[tuple]]:
    """Public name -> [(parameter, kind, default)], properties as []."""
    names = {}
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            names[name] = []
            continue
        function = getattr(cls, name)
        names[name] = [
            (parameter.name, parameter.kind, parameter.default)
            for parameter in inspect.signature(function).parameters.values()
        ]
    return names


@pytest.mark.parametrize("facade", FACADES, ids=lambda cls: cls.__name__)
def test_facade_matches_entities(facade):
    expected = surface(Entities)
    actual = surface(facade)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_async_facade_is_awaitable_where_entities_blocks():
    for name, member in vars(Entities).items():
        if name.startswith("_") or isinstance(
            member, (property, staticmethod)
        ):
            continue
        assert inspect.iscoroutinefunction(getattr(AsyncEntities, name)), name
