"""Plan explanation tests."""

import pytest

from repro.errors import ExecutionError
from repro.gomql import run_statement
from repro.gomql.explain import explain_statement


class TestExplain:
    def test_backward_plan_reported(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        plan = db.explain("range c: Cuboid retrieve c where c.volume > 250.0")
        assert plan.statement == "retrieve"
        assert plan.paths[0].kind == "gmr-backward"
        assert "<<volume>>" in plan.paths[0].detail

    def test_bounds_in_detail(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        plan = db.explain(
            "range c: Cuboid retrieve c "
            "where c.volume >= 100.0 and c.volume < 200.0"
        )
        assert "[100.0, 200.0)" in plan.paths[0].detail

    def test_attr_index_plan(self, geometry_db):
        db, _ = geometry_db
        db.create_attr_index("Cuboid", "CuboidID")
        plan = db.explain(
            "range c: Cuboid retrieve c.volume where c.CuboidID = 2"
        )
        assert plan.paths[0].kind == "attr-index"

    def test_scan_fallback(self, geometry_db):
        db, _ = geometry_db
        plan = db.explain("range c: Cuboid retrieve c where c.Value > 1.0")
        assert plan.paths[0].kind == "scan"

    def test_no_gmr_means_scan(self, geometry_db):
        db, _ = geometry_db
        plan = db.explain("range c: Cuboid retrieve c where c.volume > 1.0")
        assert plan.paths[0].kind == "scan"

    def test_restricted_gmr_gates_plan(self, geometry_db):
        db, _ = geometry_db
        db.query(
            'range c: Cuboid materialize c.volume where c.Mat.Name = "Iron"'
        )
        covered = db.explain(
            "range c: Cuboid retrieve c "
            'where c.volume > 250.0 and c.Mat.Name = "Iron"'
        )
        assert covered.paths[0].kind == "gmr-backward"
        uncovered = db.explain(
            "range c: Cuboid retrieve c where c.volume > 250.0"
        )
        assert uncovered.paths[0].kind == "scan"

    def test_binding_range(self, geometry_db):
        db, fixture = geometry_db
        plan = explain_statement(
            db,
            "range c: Mine retrieve c.volume",
            {"Mine": fixture.workpieces},
        )
        assert plan.paths[0].kind == "binding"

    def test_materialize_explanation(self, geometry_db):
        db, _ = geometry_db
        plan = db.explain("range c: Cuboid materialize c.volume, c.weight")
        assert plan.statement == "materialize"
        assert "c.volume" in plan.paths[0].detail

    def test_string_rendering(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        text = str(db.explain("range c: Cuboid retrieve c where c.volume > 1.0"))
        assert "statement: retrieve" in text
        assert "gmr-backward" in text

    def test_explain_does_not_execute(self, geometry_db):
        """Explaining must not touch the object graph."""
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        before = db.gmr_manager.stats.snapshot()
        db.explain("range c: Cuboid retrieve c where c.volume > 250.0")
        delta = db.gmr_manager.stats.delta(before)
        assert delta.forward_hits == 0
        assert delta.rematerializations == 0

    def test_multi_range_reports_scans(self, geometry_db):
        db, _ = geometry_db
        plan = db.explain(
            "range a: Cuboid, b: Cuboid retrieve a where a.Mat = b.Mat"
        )
        assert [path.kind for path in plan.paths] == ["scan", "scan"]


class TestExplainMatchesExecution:
    """EXPLAIN and execution read one ladder: a range is enumerated
    (``ObjectBase.extension``) exactly when its explained kind is
    ``scan`` — asserted against what execution did, not a string."""

    CASES = [
        ("range c: Cuboid retrieve c where c.volume > 250.0", ["gmr-backward"]),
        ("range c: Cuboid retrieve c.volume where c.CuboidID = 2", ["attr-index"]),
        ("range c: Cuboid retrieve c where c.Value > 1.0", ["scan"]),
        ("range c: Cuboid retrieve c", ["scan"]),
        ('range c: Cuboid retrieve c where c.volume > "x"', ["scan"]),
        ("range c: Mine retrieve c.volume where c.volume > 250.0", ["binding"]),
        (
            "range a: Cuboid, b: Cuboid retrieve a where a.Mat = b.Mat",
            ["scan", "scan"],
        ),
        (
            "range a: Cuboid, b: Cuboid retrieve a, b "
            "where a.volume > 250.0 and a.Mat = b.Mat",
            ["gmr-backward", "scan"],
        ),
        (
            "range c: Mine, m: Material retrieve c where c.Mat = m",
            ["binding", "scan"],
        ),
    ]

    @pytest.mark.parametrize("text, kinds", CASES)
    def test_enumerated_ranges_are_the_explained_scans(
        self, geometry_db, extension_calls, text, kinds
    ):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        db.create_attr_index("Cuboid", "CuboidID")
        params = {"Mine": fixture.workpieces}
        plan = db.explain(text, params)
        assert [path.kind for path in plan.paths] == kinds
        assert extension_calls == []  # explaining enumerates nothing
        try:
            db.query(text, params)
        except ExecutionError:
            pass  # a failing scan still shows how its range was resolved
        assert extension_calls == [
            path.type_name for path in plan.paths if path.kind == "scan"
        ]
