"""NoREC differential: the planned answer equals the unplanned one.

SQLancer's *non-optimizing reference engine construction*, applied to
the GOMql planner: every ``where``-bearing retrieve is run twice — as
written (the planner may answer its outermost range from a GMR's result
index or from an attribute index) and with the ``where`` stripped, the
rows then filtered here by :func:`repro.gomql.executor.eval_pred`.  The
stripped statement has no predicate to plan, so it always scans; no
second executor and no "force scan" switch exist in ``src/``.  The two
answers must be equal as multisets.

Predicates come from the fuzzer's grammar
(:meth:`repro.fuzz.generator.FuzzGenerator.predicate`), a share of them
conjoined with an equality on an existing key or a bound at an existing
function value, so both plans are chosen with hits and boundary cases;
two-range statements add a join conjunct the planner must leave to the
residual evaluation.  Updates are
interleaved so LAZY runs plan over invalid rows.
"""

from collections import Counter

import pytest

from repro import ObjectBase, Strategy
from repro.domains.company import build_company_schema, populate_company
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_vertex,
)
from repro.errors import ExecutionError
from repro.fuzz.generator import FuzzGenerator
from repro.gomql.executor import eval_pred
from repro.gomql.parser import parse_statement
from repro.util.rng import DeterministicRng

QUERIES_PER_RUN = 130  # × 2 domains × 2 strategies = 520
SEED = 16


def _geometry(strategy):
    db = ObjectBase()
    build_geometry_schema(db)
    rng = DeterministicRng(SEED)
    materials = [
        db.new("Material", Name=name, SpecWeight=weight)
        for name, weight in (("Gold", 19.3), ("Iron", 7.8), ("Copper", 8.9))
    ]
    cuboids = [
        create_cuboid(
            db,
            origin=(0.0, 0.0, 0.0),
            dims=tuple(round(rng.uniform(1, 7), 1) for _ in range(3)),
            material=rng.choice(materials),
            value=round(rng.uniform(1, 100), 1),
            cuboid_id=cuboid_id,
        )
        for cuboid_id in rng.sample(range(1, 400), 12)
    ]
    db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")], strategy=strategy)
    for dimension in ("length", "width", "height"):
        db.materialize([("Cuboid", dimension)], strategy=strategy)
    db.create_attr_index("Cuboid", "CuboidID")

    def update():
        factors = [round(rng.uniform(0.5, 1.5), 1) for _ in range(3)]
        rng.choice(cuboids).scale(create_vertex(db, *factors))

    ranges = {"c": ("Cuboid", "CuboidID", "volume")}
    return db, ranges, update


def _company(strategy):
    db = ObjectBase()
    build_company_schema(db)
    rng = DeterministicRng(SEED)
    fixture = populate_company(
        db, rng, departments=2, employees_per_department=5, projects=6,
        jobs_per_employee=3,
    )
    db.materialize([("Employee", "ranking")], strategy=strategy)
    db.materialize([("Job", "assessment")], strategy=strategy)
    db.create_attr_index("Employee", "EmpNo")
    db.create_attr_index("Job", "LinesOfCode")

    def update():
        rng.choice(fixture.jobs).set_LinesOfCode(rng.randint(100, 20_000))

    ranges = {
        "e": ("Employee", "EmpNo", "ranking"),
        "j": ("Job", "LinesOfCode", "assessment"),
    }
    return db, ranges, update


def _oids(row):
    return tuple(handle.oid for handle in row) if isinstance(row, tuple) else row.oid


@pytest.mark.parametrize("strategy", [Strategy.IMMEDIATE, Strategy.LAZY], ids=str)
@pytest.mark.parametrize("domain, build", [("geometry", _geometry), ("company", _company)])
def test_planned_answer_equals_filtered_scan(domain, build, strategy):
    db, ranges, update = build(strategy)
    grammar = FuzzGenerator(SEED, domain)
    rng = DeterministicRng(SEED + 1)
    kinds, skipped = Counter(), 0
    for number in range(QUERIES_PER_RUN):
        if number % 10 == 9:
            update()
        var = rng.choice(sorted(ranges))
        type_name, key_attr, function = ranges[var]
        predicate = grammar.predicate(var)
        head = f"range {var}:{type_name} retrieve {var}"
        roll = rng.random()
        if roll < 0.2:
            key = rng.choice(db.query(f"{head}.{key_attr}"))
            predicate = f"{var}.{key_attr} = {key} and ({predicate})"
        elif roll < 0.4:
            bound = rng.choice(db.query(f"{head}.{function}"))
            operator = rng.choice(["<", "<=", "=", ">=", ">"])
            predicate = f"({predicate}) and {var}.{function} {operator} {bound}"
        two = rng.random() < 0.3
        if two:
            head = f"range {var}:{type_name}, x:{type_name} retrieve {var}, x"
            predicate = f"({predicate}) and {var}.{function} <= x.{function}"
        text = f"{head} where {predicate}"
        where = parse_statement(text).where
        try:
            naive = [
                row
                for row in db.query(head)
                if eval_pred(where, dict(zip((var, "x"), row if two else (row,))))
            ]
        except ExecutionError:
            skipped += 1
            continue
        kinds[db.explain(text).paths[0].kind] += 1
        planned = db.query(text)
        assert Counter(map(_oids, planned)) == Counter(map(_oids, naive)), text
    # The differential is only worth its time if the plans were taken.
    assert min(kinds[k] for k in ("gmr-backward", "attr-index", "scan")) >= 15, kinds
    assert skipped <= QUERIES_PER_RUN // 20, f"{skipped} naive evaluations raised"
    db.close()
