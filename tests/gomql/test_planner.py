"""Planner tests: GMR exploitation decisions (Secs. 3.2 and 6)."""

import dataclasses

import pytest

from repro import ObjectBase, Strategy
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_material,
    create_vertex,
)
from repro.gomql import run_statement
from repro.util.rng import DeterministicRng
from tests._profile import calls


class TestBackwardPlans:
    def test_backward_query_avoids_object_scan(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        with db.trace() as tracer:
            result = db.query(
                "range c: Cuboid retrieve c where c.volume > 250.0"
            )
        assert len(result) == 1
        # The candidate set came from the GMR index: cuboids that do not
        # qualify were never dereferenced.
        assert fixture.cuboids[1].oid not in tracer.objects
        assert fixture.cuboids[2].oid not in tracer.objects

    def test_backward_window_with_parameters(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi",
            {"lo": 150.0, "hi": 250.0},
        )
        assert len(result) == 1

    def test_backward_equality(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        result = db.query("range c: Cuboid retrieve c where c.volume = 200.0")
        assert [h.oid for h in result] == [fixture.cuboids[1].oid]

    def test_residual_predicate_still_applied(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        result = db.query(
            "range c: Cuboid retrieve c "
            'where c.volume > 50.0 and c.Mat.Name = "Gold"'
        )
        assert len(result) == 1

    def test_without_gmr_scan_still_answers(self, geometry_db):
        db, _ = geometry_db
        result = db.query("range c: Cuboid retrieve c where c.volume > 250.0")
        assert len(result) == 1

    def test_incomplete_gmr_not_used_for_backward(self, geometry_db):
        """An incrementally set up GMR cannot answer backward queries."""
        db, fixture = geometry_db
        gmr = db.materialize([("Cuboid", "volume")], complete=False)
        result = db.query("range c: Cuboid retrieve c where c.volume > 250.0")
        assert len(result) == 1  # answered by scan

    def test_binary_function_backward(self, geometry_db):
        from repro.domains.geometry import create_robot

        db, fixture = geometry_db
        robot = create_robot(db, "R1", (1000.0, 0.0, 0.0))
        db.materialize([("Cuboid", "distance")])
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c.distance(r) < 1000.0",
            {"r": robot},
        )
        assert len(result) == 3

    def test_updates_reflected_in_backward_answers(self, geometry_db):
        from repro.domains.geometry import create_vertex

        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        fixture.cuboids[2].scale(create_vertex(db, 4.0, 1.0, 1.0))  # 100→400
        result = db.query("range c: Cuboid retrieve c where c.volume > 350.0")
        assert [h.oid for h in result] == [fixture.cuboids[2].oid]


class TestMultiVariablePlans:
    def test_first_variable_planned_in_join(self, geometry_db):
        """The outermost range variable of a join still gets a backward
        plan; join conjuncts are evaluated residually."""
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        with db.trace() as tracer:
            rows = db.query(
                "range a: Cuboid, b: Cuboid retrieve a.CuboidID, b.CuboidID "
                "where a.volume > 250.0 and a.Mat = b.Mat"
            )
        assert sorted(rows) == [(1, 1), (1, 2)]
        plan = db.explain(
            "range a: Cuboid, b: Cuboid retrieve a, b "
            "where a.volume > 250.0 and a.Mat = b.Mat"
        )
        assert plan.paths[0].kind == "gmr-backward"
        assert plan.paths[1].kind == "scan"

    def test_join_conjunct_does_not_confuse_bounds(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        rows = db.query(
            "range a: Cuboid, b: Cuboid retrieve a.CuboidID, b.CuboidID "
            "where a.volume > b.volume and a.volume > 250.0"
        )
        assert sorted(rows) == [(1, 2), (1, 3)]


class TestIndexPlans:
    def test_forward_query_uses_attribute_index(self, geometry_db):
        db, fixture = geometry_db
        db.create_attr_index("Cuboid", "CuboidID")
        with db.trace() as tracer:
            result = db.query(
                "range c: Cuboid retrieve c.volume where c.CuboidID = 2"
            )
        assert result == [pytest.approx(200.0)]
        assert fixture.cuboids[0].oid not in tracer.objects

    def test_without_index_falls_back_to_scan(self, geometry_db):
        db, _ = geometry_db
        result = db.query(
            "range c: Cuboid retrieve c.volume where c.CuboidID = 2"
        )
        assert result == [pytest.approx(200.0)]


class TestRestrictedApplicability:
    """Sec. 6: a restricted GMR answers only covered backward queries."""

    @pytest.fixture
    def setting(self, geometry_db):
        db, fixture = geometry_db
        gmr = db.query(
            "range c: Cuboid materialize c.volume "
            'where c.Mat.Name = "Iron"'
        )
        return db, fixture, gmr

    def test_covered_query_answers_from_gmr(self, setting):
        db, fixture, gmr = setting
        with db.trace() as tracer:
            result = db.query(
                "range c: Cuboid retrieve c "
                'where c.volume > 250.0 and c.Mat.Name = "Iron"'
            )
        assert [h.oid for h in result] == [fixture.cuboids[0].oid]
        # The candidates came from the restricted GMR's index: the gold
        # cuboid (outside the restriction) was never dereferenced.
        assert fixture.cuboids[2].oid not in tracer.objects

    def test_uncovered_query_falls_back_to_scan(self, setting):
        db, fixture, gmr = setting
        # No Mat.Name conjunct: the gold cuboid must not be missed.
        result = db.query("range c: Cuboid retrieve c where c.volume > 50.0")
        assert len(result) == 3

    def test_uncovered_query_correct_for_gold(self, setting):
        db, fixture, gmr = setting
        result = db.query(
            'range c: Cuboid retrieve c where c.volume = 100.0'
        )
        assert [h.oid for h in result] == [fixture.cuboids[2].oid]


# ---------------------------------------------------------------------------
# Deterministic gates on range resolution (plan first, enumerate last)
# ---------------------------------------------------------------------------

QFW = "range c: Cuboid retrieve c.volume where c.CuboidID = k"
QBW = "range c: Cuboid retrieve c.CuboidID where c.volume > lo and c.volume < hi"
SCAN = "range c: Cuboid retrieve c.CuboidID where c.Value > 1.0"
JOIN = (
    "range a: Cuboid, b: Cuboid retrieve a.CuboidID, b.CuboidID "
    "where a.CuboidID = k and a.volume >= b.volume"
)
JOIN3 = (
    "range a: Cuboid, b: Cuboid, m: Material retrieve a.CuboidID, b.CuboidID "
    "where a.volume > lo and a.volume < hi and b.Mat = m and a.volume >= b.volume"
)
WINDOW = {"k": 17, "lo": 10.0, "hi": 40.0}

# One whole Qfw statement (parse ≈ 400 of these calls, plan + index probe
# + one forward GMR hit the rest) measures 547 on CPython 3.11; before
# plan-first it was 953 at 200 cuboids and 4 553 at 2 000.
QFW_CALL_BUDGET = 600
# BufferStats deltas (logical_reads, logical_writes, hits, misses,
# writebacks) of `_fixed_sequence` at commit a1a3828, when the extension
# was still built before planning: plan-first touches no page it did not
# touch before, and skips none.
GOLDEN_SEQUENCE_BUFFER_DELTA = (420, 0, 416, 4, 2)
GOLDEN_SEQUENCE_ROWS = [1, 1, 1, 32, 35, 38]

QBW_WEIGHT = (
    "range c: Cuboid retrieve c.CuboidID where c.weight > lo and c.weight < hi"
)
QBW_NARROW = {"lo": 10.0, "hi": 10.3}
# One narrow Qbw at 2 000 cuboids measures 3 873 calls on CPython 3.11.
# While every backward query walked all GMR rows looking for the rows the
# grid file does not hold, it was 17 894 (about 7 calls per GMR row).
QBW_CALL_BUDGET = 4_500
# BufferStats deltas and row counts of the Qbw sequence below at commit
# b509509, when that walk found the residual rows: tracking them as they
# change reads the same rows, in the same order, on the same pages.
RESIDUAL_SEQUENCE_BUFFER_DELTA = (619, 48, 591, 28, 12)
RESIDUAL_SEQUENCE_ROWS = [31, 7, 50, 37, 7]
# The second window's answer there: grid points first, then the residual
# rows (the scaled cuboids 17 and 42) in row order.
RESIDUAL_WINDOW_ANSWER = [5, 16, 21, 32, 45, 17, 42]


def _population(
    count: int,
    functions=(("Cuboid", "volume"),),
    strategy: Strategy | None = None,
    **db_options,
) -> ObjectBase:
    rng = DeterministicRng(16)
    db = ObjectBase(**db_options)
    build_geometry_schema(db)
    iron = create_material(db, "Iron", 7.86)
    for index in range(count):
        create_cuboid(
            db,
            origin=(0.0, 0.0, 0.0),
            dims=(rng.uniform(1, 5), rng.uniform(1, 5), rng.uniform(1, 5)),
            material=iron,
            value=float(index % 7),
            cuboid_id=index,
        )
    db.materialize(list(functions), strategy=strategy)
    db.create_attr_index("Cuboid", "CuboidID")
    return db


class TestRangeResolution:
    @pytest.mark.parametrize(
        "text, kind, extensions",
        [
            (QFW, "attr-index", []),
            (QBW, "gmr-backward", []),
            (SCAN, "scan", ["Cuboid"]),
            (JOIN, "attr-index", ["Cuboid"]),
            (JOIN3, "gmr-backward", ["Cuboid", "Material"]),
        ],
    )
    def test_extension_is_built_only_for_unplanned_ranges(
        self, extension_calls, text, kind, extensions
    ):
        db = _population(20)
        assert db.explain(text, WINDOW).paths[0].kind == kind
        assert extension_calls == []  # EXPLAIN never enumerates
        rows = db.query(text, WINDOW)
        assert rows
        assert extension_calls == extensions

    def test_qfw_call_count_is_independent_of_the_population(self):
        counts = []
        for cuboids in (200, 2_000):
            db = _population(cuboids)
            db.query(QFW, WINDOW)  # compile member plans, fault pages in
            counts.append(calls(lambda: db.query(QFW, WINDOW)))
        assert counts[0] == counts[1] <= QFW_CALL_BUDGET

    def test_plan_first_touches_the_pages_the_old_order_touched(self):
        db = _population(50, buffer_pages=8)
        before = dataclasses.astuple(db.buffer.stats)
        answers = [db.query(QFW, {"k": k}) for k in (3, 17, 42)]
        answers += [db.query(text, WINDOW) for text in (QBW, SCAN, JOIN)]
        after = dataclasses.astuple(db.buffer.stats)
        assert [len(answer) for answer in answers] == GOLDEN_SEQUENCE_ROWS
        delta = tuple(now - then for now, then in zip(after, before))
        assert delta == GOLDEN_SEQUENCE_BUFFER_DELTA

    def test_narrow_qbw_does_not_walk_every_gmr_row(self):
        db = _population(2_000)
        db.query(QBW, QBW_NARROW)  # compile member plans, fault pages in
        assert calls(lambda: db.query(QBW, QBW_NARROW)) <= QBW_CALL_BUDGET

    def test_residual_rows_touch_the_pages_the_row_walk_touched(self):
        db = _population(
            50,
            functions=[("Cuboid", "volume"), ("Cuboid", "weight")],
            strategy=Strategy.LAZY,
            buffer_pages=8,
        )
        for k in (3, 17, 42):
            (cuboid,) = db.query(
                "range c: Cuboid retrieve c where c.CuboidID = k", {"k": k}
            )
            cuboid.scale(create_vertex(db, 2.0, 1.0, 1.0))
        gmr = db.gmr_manager.gmr_of("Cuboid.volume")
        before = dataclasses.astuple(db.buffer.stats)
        # The first Qbw revalidates volume only: the three scaled rows stay
        # invalid for weight, so they are no grid point.
        answers = [
            db.query(QBW, {"lo": lo, "hi": hi})
            for lo, hi in [(10.0, 40.0), (40.0, 130.0), (0.0, 260.0)]
        ]
        assert not gmr.invalid_args("Cuboid.volume")
        assert len(gmr.invalid_args("Cuboid.weight")) == 3
        answers.append(db.query(QBW_WEIGHT, {"lo": 100.0, "hi": 900.0}))
        answers.append(db.query(QBW, {"lo": 40.0, "hi": 130.0}))
        after = dataclasses.astuple(db.buffer.stats)
        assert answers[1] == RESIDUAL_WINDOW_ANSWER
        assert [len(answer) for answer in answers] == RESIDUAL_SEQUENCE_ROWS
        delta = tuple(now - then for now, then in zip(after, before))
        assert delta == RESIDUAL_SEQUENCE_BUFFER_DELTA


class TestNaNResults:
    def test_nan_volume_is_in_no_backward_range(self):
        db = ObjectBase()
        build_geometry_schema(db)
        iron = create_material(db, "Iron", 7.86)
        cuboids = [
            create_cuboid(db, dims=(float(v), 1.0, 1.0), material=iron, cuboid_id=v)
            for v in (1, 2, 3)
        ]
        db.materialize([("Cuboid", "volume")])
        cuboids[2].V2.set_X(float("nan"))
        answer = db.gmr_manager.backward_query("Cuboid.volume", 0.5, 1.5)
        assert answer == [(1.0, (cuboids[0].oid,))]
        assert db.query(QBW, {"lo": 0.5, "hi": 1.5}) == [1]
