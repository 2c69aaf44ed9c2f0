"""Ablation: immediate vs. lazy rematerialization.

The paper's Sec. 4.1 tuning choice, measured on one update-then-query
profile:

* *immediate* pays at update time,
* *lazy* pays at (first) query time.
"""

from _support import run_once

from repro import ObjectBase, Strategy
from repro.bench.runner import measure
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_material,
    create_vertex,
)
from repro.util.rng import DeterministicRng


def _build(strategy, cuboids=200):
    db = ObjectBase(buffer_pages=48)
    build_geometry_schema(db)
    rng = DeterministicRng(31)
    iron = create_material(db, "Iron", 7.86)
    handles = [
        create_cuboid(
            db,
            dims=(rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(1, 10)),
            material=iron,
            cuboid_id=index,
        )
        for index in range(cuboids)
    ]
    gmr = db.materialize([("Cuboid", "volume")], strategy=strategy)
    return db, handles, gmr


def _update_phase(db, handles, updates=60):
    rng = DeterministicRng(8)
    param = create_vertex(db, 1.0, 1.0, 1.0)

    def work():
        for _ in range(updates):
            cuboid = rng.choice(handles)
            param.set_X(rng.uniform(0.9, 1.1))
            cuboid.scale(param)

    return measure(db, work, 0.0)


def _query_phase(db, handles, queries=60):
    rng = DeterministicRng(9)

    def work():
        for _ in range(queries):
            rng.choice(handles).volume()

    return measure(db, work, 0.0)


def test_update_cost_ordering(benchmark):
    """lazy < immediate at update time."""
    costs = {}
    for strategy in (Strategy.IMMEDIATE, Strategy.LAZY):
        db, handles, _ = _build(strategy)
        if strategy is Strategy.LAZY:
            point = benchmark.pedantic(
                lambda db=db, handles=handles: _update_phase(db, handles),
                rounds=1,
                iterations=1,
            )
        else:
            point = _update_phase(db, handles)
        costs[strategy] = point.logical_reads
    assert costs[Strategy.LAZY] < costs[Strategy.IMMEDIATE]


def test_query_cost_ordering(benchmark):
    """After an update burst, lazy pays at query time."""
    reads = {}
    for strategy in (Strategy.IMMEDIATE, Strategy.LAZY):
        db, handles, gmr = _build(strategy)
        _update_phase(db, handles)
        if strategy is Strategy.LAZY:
            point = benchmark.pedantic(
                lambda db=db, handles=handles: _query_phase(db, handles),
                rounds=1,
                iterations=1,
            )
        else:
            point = _query_phase(db, handles)
        reads[strategy] = point.logical_reads
        assert gmr.check_consistency(db) == []
    assert reads[Strategy.IMMEDIATE] < reads[Strategy.LAZY]  # immediate already paid
