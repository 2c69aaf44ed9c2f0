"""Shared fixtures: the paper's example databases."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import InstrumentationLevel, ObjectBase
from repro.domains.company import build_company_schema, populate_company
from repro.domains.geometry import build_figure2_database, build_geometry_schema
from repro.util.rng import DeterministicRng

# Hypothesis profiles.  ``tier1`` (the default) is derandomized, so the
# suite's wall time and verdict repeat run to run; ``nightly`` is the
# randomized full budget the scheduled CI job selects with
# ``--hypothesis-profile=nightly``.  ``max_examples`` reaches only the
# tests that pin no budget of their own — the brute-force satisfiability
# cross-check, half of tier-1's wall time at 100 examples.
settings.register_profile("tier1", derandomize=True, max_examples=10)
settings.register_profile("nightly", max_examples=100)
settings.load_profile("tier1")


@pytest.fixture
def db() -> ObjectBase:
    """An empty object base with default (OBJ_DEP) instrumentation."""
    return ObjectBase()


@pytest.fixture
def geometry_db():
    """(db, fixture) — the Figure 2 example database."""
    database = ObjectBase()
    build_geometry_schema(database)
    fixture = build_figure2_database(database)
    return database, fixture


@pytest.fixture
def strict_geometry_db():
    """(db, fixture) — the Sec. 5.3 strictly encapsulated variant."""
    database = ObjectBase(level=InstrumentationLevel.INFO_HIDING)
    build_geometry_schema(database, strict_cuboids=True)
    fixture = build_figure2_database(database)
    return database, fixture


@pytest.fixture
def company_db():
    """(db, fixture) — a small company population."""
    database = ObjectBase()
    build_company_schema(database)
    fixture = populate_company(
        database,
        DeterministicRng(3),
        departments=3,
        employees_per_department=4,
        projects=10,
        jobs_per_employee=3,
    )
    return database, fixture


def make_point_db() -> ObjectBase:
    """A minimal one-type schema used across unit tests."""
    database = ObjectBase()
    database.define_tuple_type("Point", {"X": "float", "Y": "float"})

    def norm(self):
        return (self.X * self.X + self.Y * self.Y) ** 0.5

    def manhattan(self):
        x = self.X if self.X >= 0 else -self.X
        y = self.Y if self.Y >= 0 else -self.Y
        return x + y

    database.define_operation("Point", "norm", [], "float", norm)
    database.define_operation("Point", "manhattan", [], "float", manhattan)
    return database


@pytest.fixture
def point_db() -> ObjectBase:
    return make_point_db()
