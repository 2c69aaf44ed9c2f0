"""Negative-path coverage: malformed GOMql must fail as ``QueryError``.

Every failure mode the fuzzer's grammar can emit — unknown names, type
mismatches, bad calls, division by zero, aggregate misuse, malformed
``materialize`` — has to surface as :class:`~repro.errors.QueryError`
(usually its :class:`~repro.errors.ExecutionError` leaf), never as a
bare ``TypeError``/``AttributeError``/``KeyError`` or as
:class:`~repro.errors.InternalError`.
"""

import pytest

from repro import ObjectBase, Strategy
from repro.domains.company import build_company_schema
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_vertex,
)
from repro.errors import ExecutionError, InternalError, QueryError


@pytest.fixture
def geo_db():
    db = ObjectBase()
    build_geometry_schema(db)
    material = db.new("Material", Name="Iron", SpecWeight=7.8)
    create_cuboid(
        db,
        origin=(0.0, 0.0, 0.0),
        dims=(2.0, 3.0, 4.0),
        material=material,
        value=50.0,
        cuboid_id=1,
    )
    yield db
    db.close()


def assert_query_error(db, text):
    """The statement must raise QueryError — and nothing broader."""
    try:
        db.query(text)
    except InternalError as exc:  # pragma: no cover - failure path
        pytest.fail(f"{text!r} raised InternalError: {exc}")
    except QueryError:
        return
    except Exception as exc:  # pragma: no cover - failure path
        pytest.fail(f"{text!r} raised bare {type(exc).__name__}: {exc}")
    pytest.fail(f"{text!r} did not raise")  # pragma: no cover


class TestUnknownNames:
    def test_unknown_range_target(self, geo_db):
        assert_query_error(geo_db, "range x:Nonexistent retrieve x")

    def test_unknown_attribute(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve c.Nope")

    def test_unknown_attribute_in_where(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c.Value where c.Bogus > 1"
        )

    def test_unknown_attribute_on_chain(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve c.Mat.Density")

    def test_attribute_on_scalar(self, geo_db):
        # c.Value is a float; .Name on it is an AttributeError in raw
        # Python and must come back as ExecutionError.
        assert_query_error(geo_db, "range c:Cuboid retrieve c.Value.Name")

    def test_unbound_identifier(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve c where c = ghost")

    def test_unknown_operation_call(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve c.teleport(1)")


class TestTypeMismatches:
    def test_compare_number_to_string(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c where c.Value < 'high'"
        )

    def test_compare_object_to_number(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve c where c < 3")

    def test_arithmetic_on_string(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c.Mat.Name * c.Value"
        )

    def test_add_string_and_number(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c.Mat.Name + 1"
        )

    def test_unary_minus_on_string(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve -c.Mat.Name")

    def test_sum_of_strings(self, geo_db):
        assert_query_error(geo_db, "range c:Cuboid retrieve sum(c.Mat.Name)")

    def test_in_on_non_collection(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid, d:Cuboid retrieve c where c in d"
        )


class TestBadExpressions:
    def test_division_by_zero(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c.Value / 0"
        )

    def test_division_by_zero_in_where(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c where 1 / 0 > 1"
        )

    def test_call_with_wrong_arity(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve c.volume(1, 2, 3)"
        )

    def test_mixed_aggregate_and_plain(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid retrieve sum(c.Value), c.CuboidID"
        )


class TestMalformedMaterialize:
    def test_materialize_over_parameter(self, geo_db):
        assert_query_error(
            geo_db, "range x:NotAType materialize x.volume"
        )

    def test_materialize_target_not_on_range_var(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid materialize d.volume"
        )

    def test_materialize_argument_not_a_variable(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid, r:Robot materialize c.distance(5)"
        )

    def test_materialize_mixed_argument_lists(self, geo_db):
        assert_query_error(
            geo_db,
            "range c:Cuboid, r:Robot materialize c.distance(r), c.volume",
        )

    def test_restriction_without_range_variable(self, geo_db):
        assert_query_error(
            geo_db, "range c:Cuboid materialize c.volume where 1 < 2"
        )


class TestCompanyNegativePaths:
    @pytest.fixture
    def co_db(self):
        db = ObjectBase()
        build_company_schema(db)
        history = db.new_collection("Jobs", [])
        db.new(
            "Employee",
            Name="E1",
            EmpNo=1,
            Salary=50_000.0,
            JobHistory=history,
        )
        yield db
        db.close()

    def test_compare_bool_attr_to_string(self, co_db):
        programmers = co_db.new_collection("Employees", [])
        project = co_db.new(
            "Project",
            PName="P",
            Status=1.0,
            Size=10,
            Programmers=programmers,
        )
        co_db.new(
            "Job", Proj=project, LinesOfCode=10, OnTime=True,
            WithinBudget=True,
        )
        assert_query_error(
            co_db, "range j:Job retrieve j where j.OnTime < 'yes'"
        )

    def test_unknown_operation(self, co_db):
        assert_query_error(co_db, "range e:Employee retrieve e.fire()")

    def test_execution_error_is_query_error(self, co_db):
        with pytest.raises(QueryError):
            co_db.query("range e:Employee retrieve e.Nope")
        with pytest.raises(ExecutionError):
            co_db.query("range e:Employee retrieve e.Nope")


class TestPlannedQueriesFailLikeTheScan:
    """A planned query must fail (or not) exactly like the scan it
    replaces: a constant the index keys cannot be ordered against
    declines the plan, it never escapes as a raw ``TypeError`` from the
    B+-tree or the GMR's result index."""

    @pytest.fixture(params=[Strategy.IMMEDIATE, Strategy.LAZY], ids=str)
    def planned_db(self, geo_db, request):
        geo_db.create_attr_index("Cuboid", "CuboidID")
        geo_db.materialize([("Cuboid", "volume")], strategy=request.param)
        return geo_db

    @pytest.mark.parametrize(
        "where, params",
        [('c.CuboidID = "x"', None), ("c.CuboidID = k", {"k": None})],
    )
    def test_index_plan_with_foreign_constant_answers_like_the_scan(
        self, planned_db, where, params
    ):
        text = f"range c:Cuboid retrieve c.CuboidID where {where}"
        assert planned_db.query(text, params) == []
        assert planned_db.explain(text, params).paths[0].kind == "scan"
        # The orderable twin is still answered through the index.
        assert planned_db.query(text.split(" where ")[0] + " where c.CuboidID = 1") == [1]

    def test_unset_attribute_is_found_despite_the_index(self, planned_db):
        """``None`` is never an index key, so ``= None`` must scan."""
        planned_db.create_attr_index("Cuboid", "Mat")
        planned_db.new("Cuboid", CuboidID=2)
        text = "range c:Cuboid retrieve c.CuboidID where c.Mat = m"
        assert planned_db.query(text, {"m": None}) == [2]
        (material,) = planned_db.extension("Material")
        assert planned_db.explain(text, {"m": material}).paths[0].kind == "attr-index"
        assert planned_db.query(text, {"m": material}) == [1]

    @pytest.mark.parametrize(
        "where, message",
        [
            ('c.volume > "x"', "cannot compare float > str"),
            ('c.volume > "x" and c.volume > 3.0', "cannot compare float > str"),
            ('c.volume > 3.0 and c.volume < "x"', "cannot compare float < str"),
            ("c.volume < k", "cannot compare float < NoneType"),
        ],
    )
    def test_backward_plan_with_foreign_bound_raises_like_the_scan(
        self, planned_db, where, message
    ):
        text = f"range c:Cuboid retrieve c where {where}"
        assert planned_db.explain(text, {"k": None}).paths[0].kind == "scan"
        with pytest.raises(ExecutionError, match=message):
            planned_db.query(text, {"k": None})

    def test_declined_backward_plan_forces_no_revalidation(self, geo_db):
        (material,) = geo_db.extension("Material")
        create_cuboid(
            geo_db, origin=(0.0, 0.0, 0.0), dims=(1.0, 1.0, 1.0),
            material=material, value=1.0, cuboid_id=2,
        )
        geo_db.materialize([("Cuboid", "volume")], strategy=Strategy.LAZY)
        for cuboid in geo_db.extension("Cuboid"):
            cuboid.scale(create_vertex(geo_db, 2.0, 1.0, 1.0))
        gmr = geo_db.gmr_manager.gmr_of("Cuboid.volume")
        assert len(gmr.invalid_args("Cuboid.volume")) == 2
        with pytest.raises(ExecutionError):
            geo_db.query('range c:Cuboid retrieve c.CuboidID where c.volume > "x"')
        # The scan failed on its first candidate (whose volume the forward
        # call revalidated); a backward sweep would have healed both rows.
        assert len(gmr.invalid_args("Cuboid.volume")) == 1
        # The orderable twin is planned and does force the sweep.
        assert geo_db.query(
            "range c:Cuboid retrieve c.CuboidID where c.volume > 10.0"
        ) == [1]
        assert not gmr.invalid_args("Cuboid.volume")
