"""Fixtures shared by the GOMql planner/explain tests."""

import pytest

from repro import ObjectBase


@pytest.fixture
def extension_calls(monkeypatch):
    """The type names `ObjectBase.extension` was called with, in order."""
    calls: list[str] = []
    original = ObjectBase.extension

    def counted(self, type_name):
        calls.append(type_name)
        return original(self, type_name)

    monkeypatch.setattr(ObjectBase, "extension", counted)
    return calls
