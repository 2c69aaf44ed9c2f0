"""GOMql execution tests over the Figure 2 database."""

import pytest

from repro.errors import QueryError
from repro.gomql import run_statement


class TestRetrieve:
    def test_unqualified_scan(self, geometry_db):
        db, fixture = geometry_db
        result = db.query("range c: Cuboid retrieve c")
        assert {handle.oid for handle in result} == {
            cuboid.oid for cuboid in fixture.cuboids
        }

    def test_paper_backward_query(self, geometry_db):
        db, fixture = geometry_db
        result = db.query(
            "range c: Cuboid retrieve c "
            "where c.volume > 20.0 and c.weight > 100.0"
        )
        assert len(result) == 3  # all of Figure 2 qualifies

    def test_selective_predicate(self, geometry_db):
        db, fixture = geometry_db
        result = db.query(
            "range c: Cuboid retrieve c where c.volume > 250.0"
        )
        assert [handle.oid for handle in result] == [fixture.cuboids[0].oid]

    def test_projection_of_function_value(self, geometry_db):
        db, _ = geometry_db
        volumes = db.query("range c: Cuboid retrieve c.volume")
        assert sorted(volumes) == [
            pytest.approx(100.0),
            pytest.approx(200.0),
            pytest.approx(300.0),
        ]

    def test_projection_of_attribute_path(self, geometry_db):
        db, _ = geometry_db
        names = db.query("range c: Cuboid retrieve c.Mat.Name")
        assert sorted(names) == ["Gold", "Iron", "Iron"]

    def test_multiple_projections(self, geometry_db):
        db, _ = geometry_db
        rows = db.query("range c: Cuboid retrieve c.CuboidID, c.volume")
        assert sorted(rows) == [
            (1, pytest.approx(300.0)),
            (2, pytest.approx(200.0)),
            (3, pytest.approx(100.0)),
        ]

    def test_arithmetic_in_projection(self, geometry_db):
        db, _ = geometry_db
        doubled = db.query(
            "range c: Cuboid retrieve c.volume * 2 where c.CuboidID = 1"
        )
        assert doubled == [pytest.approx(600.0)]

    def test_range_over_bound_collection(self, geometry_db):
        """The paper's MyValuableCuboids forward query."""
        db, fixture = geometry_db
        total = run_statement(
            db,
            "range c: MyValuables retrieve sum(c.weight)",
            {"MyValuables": fixture.valuables},
        )
        assert total == pytest.approx(1900.0)

    def test_range_over_python_list(self, geometry_db):
        db, fixture = geometry_db
        result = run_statement(
            db,
            "range c: Chosen retrieve c.volume",
            {"Chosen": fixture.cuboids[:2]},
        )
        assert sorted(result) == [pytest.approx(200.0), pytest.approx(300.0)]

    def test_unknown_range_target(self, geometry_db):
        db, _ = geometry_db
        with pytest.raises(QueryError):
            db.query("range c: Nowhere retrieve c")

    def test_parameters_in_predicates(self, geometry_db):
        db, _ = geometry_db
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi",
            {"lo": 150.0, "hi": 250.0},
        )
        assert len(result) == 1

    def test_db_query_forwards_params_like_explain(self, geometry_db):
        db, _ = geometry_db
        text = "range c: Cuboid retrieve c.CuboidID where c.volume > lo"
        params = {"lo": 250.0}
        assert db.query(text, params) == run_statement(db, text, params) == [1]
        assert db.explain(text, params).paths[0].kind == "scan"
        with pytest.raises(QueryError, match="unbound identifier 'lo'"):
            db.query(text)

    def test_object_parameter_comparison(self, geometry_db):
        db, fixture = geometry_db
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c.Mat = m",
            {"m": fixture.gold},
        )
        assert [handle.oid for handle in result] == [fixture.cuboids[2].oid]

    def test_membership_predicate(self, geometry_db):
        db, fixture = geometry_db
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c in wp",
            {"wp": fixture.workpieces},
        )
        assert len(result) == 2

    def test_two_variable_join(self, geometry_db):
        db, fixture = geometry_db
        rows = db.query(
            "range a: Cuboid, b: Cuboid retrieve a.CuboidID, b.CuboidID "
            "where a.Mat = b.Mat and a.CuboidID < b.CuboidID"
        )
        assert rows == [(1, 2)]


class TestAggregates:
    def test_sum(self, geometry_db):
        db, _ = geometry_db
        assert db.query("range c: Cuboid retrieve sum(c.volume)") == pytest.approx(
            600.0
        )

    def test_count(self, geometry_db):
        db, _ = geometry_db
        assert db.query("range c: Cuboid retrieve count(c)") == 3

    def test_avg(self, geometry_db):
        db, _ = geometry_db
        assert db.query("range c: Cuboid retrieve avg(c.volume)") == pytest.approx(
            200.0
        )

    def test_min_max(self, geometry_db):
        db, _ = geometry_db
        low, high = db.query(
            "range c: Cuboid retrieve min(c.volume), max(c.volume)"
        )
        assert (low, high) == (pytest.approx(100.0), pytest.approx(300.0))

    def test_aggregate_with_predicate(self, geometry_db):
        db, _ = geometry_db
        total = db.query(
            'range c: Cuboid retrieve sum(c.volume) where c.Mat.Name = "Iron"'
        )
        assert total == pytest.approx(500.0)

    def test_aggregates_over_empty_set(self, geometry_db):
        db, _ = geometry_db
        assert db.query(
            "range c: Cuboid retrieve count(c) where c.volume > 9999.0"
        ) == 0
        assert db.query(
            "range c: Cuboid retrieve sum(c.volume) where c.volume > 9999.0"
        ) == 0

    def test_mixed_projections_rejected(self, geometry_db):
        db, _ = geometry_db
        with pytest.raises(QueryError):
            db.query("range c: Cuboid retrieve c, sum(c.volume)")


class TestMaterializeStatement:
    def test_paper_materialize(self, geometry_db):
        db, _ = geometry_db
        gmr = db.query("range c: Cuboid materialize c.volume, c.weight")
        assert gmr.fids == ["Cuboid.volume", "Cuboid.weight"]
        assert len(gmr) == 3

    def test_restricted_materialize(self, geometry_db):
        db, _ = geometry_db
        gmr = db.query(
            "range c: Cuboid materialize c.volume "
            'where c.Mat.Name = "Iron"'
        )
        assert gmr.is_restricted
        assert len(gmr) == 2

    def test_binary_materialize(self, geometry_db):
        db, _ = geometry_db
        gmr = db.query(
            "range c1: Cuboid, c2: Cuboid materialize c1.distance_to(c2)"
        )
        assert len(gmr) == 9

    def test_materialize_over_binding_rejected(self, geometry_db):
        db, fixture = geometry_db
        with pytest.raises(QueryError):
            run_statement(
                db,
                "range c: Bound materialize c.volume",
                {"Bound": fixture.workpieces},
            )

    def test_queries_use_fresh_gmr(self, geometry_db):
        db, fixture = geometry_db
        db.query("range c: Cuboid materialize c.volume")
        with db.trace() as tracer:
            result = db.query("range c: Cuboid retrieve c where c.volume > 250.0")
        assert len(result) == 1
        vertex_oids = {
            db.objects.get(cuboid.oid).data["V1"] for cuboid in fixture.cuboids
        }
        assert not (tracer.objects & vertex_oids)
