"""Deterministic gates on the GOM object-access path.

Two kinds of invariant, neither of which is a wall-clock number:

* a **page-touch golden** — simulated cost is a pure function of the
  page-touch sequence, so a fixed-seed mini workload must leave exactly
  the same five ``BufferStats`` counters (and the same maintenance
  counts) whatever is done to make object access cheaper;
* a **call budget** — the number of function calls ``cProfile`` sees for
  one direct ``volume()`` evaluation and for one ``scale``, so that an
  object-access regression fails here rather than in a timing run.
"""

from __future__ import annotations

import dataclasses

from repro import InstrumentationLevel, ObjectBase, Strategy
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_material,
    create_vertex,
)
from repro.observe.config import MaterializationConfig
from repro.util.rng import DeterministicRng
from tests._profile import calls

CUBOIDS = 50
UPDATES = 30

# Measured at commit 1732a94, before the access path was rebuilt:
# (logical_reads, logical_writes, hits, misses, writebacks) and
# (invalidate_calls, rematerializations).
GOLDEN_BUFFER_STATS = (16936, 5266, 16830, 106, 77)
GOLDEN_MAINTENANCE = (360, 410)
# Call budgets: 10 % above what this path measures on CPython 3.11
# (345 and 10 545; the path it replaced took 585 and 16 244).
VOLUME_CALL_BUDGET = 380
SCALE_CALL_BUDGET = 11_600


def _populate(db: ObjectBase, rng: DeterministicRng) -> list:
    build_geometry_schema(db)
    iron = create_material(db, "Iron", 7.86)
    return [
        create_cuboid(
            db,
            origin=(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)),
            dims=(rng.uniform(1, 5), rng.uniform(1, 5), rng.uniform(1, 5)),
            material=iron,
            cuboid_id=index,
        )
        for index in range(CUBOIDS)
    ]


def _mini_workload() -> ObjectBase:
    rng = DeterministicRng(7)
    db = ObjectBase(
        buffer_pages=8,
        config=MaterializationConfig(level=InstrumentationLevel.OBJ_DEP),
    )
    cuboids = _populate(db, rng)
    db.materialize([("Cuboid", "volume")], strategy=Strategy.IMMEDIATE)
    param = create_vertex(db, 1.0, 1.0, 1.0)
    for step in range(UPDATES):
        cuboid = rng.choice(cuboids)
        kind = step % 3
        if kind == 0:
            param.set_X(rng.uniform(0.5, 2.0))
            param.set_Y(rng.uniform(0.5, 2.0))
            param.set_Z(rng.uniform(0.5, 2.0))
            cuboid.scale(param)
        elif kind == 1:
            cuboid.rotate("z", rng.uniform(0.0, 3.0))
        else:
            param.set_X(rng.uniform(-1.0, 1.0))
            cuboid.translate(param)
        rng.choice(cuboids).volume()
    return db


class TestPageTouchGolden:
    def test_buffer_counters_and_maintenance_counts(self):
        db = _mini_workload()
        assert dataclasses.astuple(db.buffer.stats) == GOLDEN_BUFFER_STATS
        stats = db.gmr_manager.stats
        assert (stats.invalidate_calls, stats.rematerializations) == GOLDEN_MAINTENANCE


class TestCallBudget:
    def test_direct_volume_evaluation(self):
        db = ObjectBase(config=MaterializationConfig(level=InstrumentationLevel.NONE))
        cuboid = _populate(db, DeterministicRng(7))[0]
        cuboid.volume()  # compile the member plans
        assert calls(cuboid.volume) <= VOLUME_CALL_BUDGET

    def test_one_scale_with_immediate_rematerialization(self):
        db = ObjectBase(config=MaterializationConfig(level=InstrumentationLevel.OBJ_DEP))
        cuboid = _populate(db, DeterministicRng(7))[0]
        db.materialize([("Cuboid", "volume")], strategy=Strategy.IMMEDIATE)
        factor = create_vertex(db, 2.0, 2.0, 2.0)
        cuboid.scale(factor)
        assert calls(lambda: cuboid.scale(factor)) <= SCALE_CALL_BUDGET
