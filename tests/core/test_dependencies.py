"""SchemaDepFct / ObjDepFct tests (Defs. 5.1, 5.2 and the Sec. 5.2 example)."""

import pytest

from repro import ObjectBase
from repro.core.dependencies import DependencyIndex
from repro.core.function_registry import FunctionInfo
from repro.domains.geometry import build_figure2_database, build_geometry_schema
from repro.gom.instrumentation import InstrumentationLevel


def info(fid, pairs):
    type_name, op_name = fid.split(".")
    return FunctionInfo(
        fid=fid,
        type_name=type_name,
        op_name=op_name,
        arg_types=(type_name,),
        result_type="float",
        relevant_attrs=None if pairs is None else frozenset(pairs),
    )


class TestDependencyIndex:
    def test_lookup_by_pair(self):
        index = DependencyIndex()
        index.add_function(info("T.f", {("T", "A")}))
        assert index.schema_dep_fct("T", "A") == {"T.f"}
        assert index.schema_dep_fct("T", "B") == frozenset()

    def test_multiple_functions_per_pair(self):
        index = DependencyIndex()
        index.add_function(info("T.f", {("T", "A")}))
        index.add_function(info("T.g", {("T", "A"), ("T", "B")}))
        assert index.schema_dep_fct("T", "A") == {"T.f", "T.g"}
        assert index.schema_dep_fct("T", "B") == {"T.g"}

    def test_unknown_relattr_is_always_relevant(self):
        index = DependencyIndex()
        index.add_function(info("T.opaque", None))
        index.add_function(info("T.f", {("T", "A")}))
        assert index.schema_dep_fct("T", "A") == {"T.f", "T.opaque"}
        assert index.schema_dep_fct("X", "Y") == {"T.opaque"}
        assert index.is_always_relevant("T.opaque")

    def test_remove_function(self):
        index = DependencyIndex()
        index.add_function(info("T.f", {("T", "A")}))
        index.remove_function("T.f")
        assert index.schema_dep_fct("T", "A") == frozenset()

    def test_relevant_attrs_accessor(self):
        index = DependencyIndex()
        index.add_function(info("T.f", {("T", "A")}))
        assert index.relevant_attrs("T.f") == {("T", "A")}
        assert index.relevant_attrs("T.missing") == frozenset()


class TestPaperSection51:
    """RelAttr(volume) and the derived SchemaDepFct sets."""

    @pytest.fixture
    def manager(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")])
        return db.gmr_manager

    def test_relattr_volume(self, manager):
        assert manager.relevant_attrs("Cuboid.volume") == {
            ("Cuboid", "V1"),
            ("Cuboid", "V2"),
            ("Cuboid", "V4"),
            ("Cuboid", "V5"),
            ("Vertex", "X"),
            ("Vertex", "Y"),
            ("Vertex", "Z"),
        }

    def test_schema_dep_fct_of_vertex_setters(self, manager):
        for attr in ("X", "Y", "Z"):
            assert manager.schema_dep_fct("Vertex", attr) == {
                "Cuboid.volume",
                "Cuboid.weight",
            }

    def test_schema_dep_fct_of_relevant_cuboid_setters(self, manager):
        for attr in ("V1", "V2", "V4", "V5"):
            assert "Cuboid.volume" in manager.schema_dep_fct("Cuboid", attr)

    def test_schema_dep_fct_of_irrelevant_setters(self, manager):
        assert manager.schema_dep_fct("Cuboid", "Value") == frozenset()
        assert manager.schema_dep_fct("Cuboid", "V3") == frozenset()

    def test_weight_also_depends_on_material(self, manager):
        assert manager.schema_dep_fct("Material", "SpecWeight") == {
            "Cuboid.weight"
        }
        assert manager.schema_dep_fct("Cuboid", "Mat") == {"Cuboid.weight"}


class TestPaperSection52Example:
    """The id31 example: ObjDepFct ∩ SchemaDepFct pins the invalidation."""

    def test_intersection(self):
        db = ObjectBase()
        build_geometry_schema(db)
        fixture = build_figure2_database(db)
        db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")])
        db.materialize([("Workpieces", "total_volume"),
                        ("Workpieces", "total_weight")])
        db.materialize([("Valuables", "total_value")])
        manager = db.gmr_manager

        schema_dep = manager.schema_dep_fct("Vertex", "X")
        assert schema_dep == {
            "Cuboid.volume",
            "Cuboid.weight",
            "Workpieces.total_volume",
            "Workpieces.total_weight",
        }

        # id31 is a vertex of the gold cuboid (id3), which is a member of
        # Valuables but not Workpieces: its ObjDepFct holds volume/weight.
        c3 = fixture.cuboids[2]
        v31 = db.objects.get(c3.oid).data["V1"]
        obj_dep = db.objects.get(v31).obj_dep_fct
        assert obj_dep == {"Cuboid.volume", "Cuboid.weight"}
        assert obj_dep & schema_dep == {"Cuboid.volume", "Cuboid.weight"}

        # A vertex of a Workpieces member additionally carries the totals.
        c1 = fixture.cuboids[0]
        v11 = db.objects.get(c1.oid).data["V1"]
        assert db.objects.get(v11).obj_dep_fct == {
            "Cuboid.volume",
            "Cuboid.weight",
            "Workpieces.total_volume",
            "Workpieces.total_weight",
        }

    def test_membership_updates_hit_total_functions(self):
        db = ObjectBase()
        build_geometry_schema(db)
        build_figure2_database(db)
        db.materialize([("Workpieces", "total_volume")])
        manager = db.gmr_manager
        assert manager.schema_dep_fct("Workpieces", "__elements__") == {
            "Workpieces.total_volume"
        }


class TestPlannedVsScannedEquivalence:
    """Fig. 7's update workload: the ``SchemaDepFct`` dispatch must give
    the answers of an unmaterialized twin, at a pinned invalidation
    volume."""

    def _run_workload(self, materialized):
        level = None if materialized else InstrumentationLevel.NONE
        db = ObjectBase(level=level)
        build_geometry_schema(db)
        fixture = build_figure2_database(db)
        if materialized:
            db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")])
            db.materialize([("Workpieces", "total_volume")])
        cuboids = fixture.cuboids
        try:
            # The Fig. 7 mix: vertex moves (invalidating), value updates
            # (irrelevant), membership updates, and interleaved reads.
            for round_no in range(6):
                c = cuboids[round_no % len(cuboids)]
                v1 = db.objects.get(c.oid).data["V1"]
                db.set_attr(v1, "X", float(round_no))
                db.set_attr(c.oid, "Value", 10.0 + round_no)
                if round_no % 2:
                    db.set_attr(v1, "Y", -float(round_no))
            volumes = db.query("range c:Cuboid retrieve c.volume")
            weights = db.query("range c:Cuboid retrieve c.weight")
            totals = db.query("range w:Workpieces retrieve w.total_volume")
            stats = db.gmr_manager.stats.snapshot()
            violations = []
            for gmr in db.gmr_manager.gmrs():
                violations.extend(gmr.check_consistency(db))
            return {
                "volumes": sorted(volumes),
                "weights": sorted(weights),
                "totals": sorted(totals),
                "invalidations": (stats.invalidate_calls,
                                  stats.entries_invalidated),
                "violations": violations,
            }
        finally:
            db.close()

    def test_equivalence(self):
        maintained = self._run_workload(True)
        twin = self._run_workload(False)
        assert maintained["violations"] == []
        for key in ("volumes", "weights", "totals"):
            assert maintained[key] == twin[key]
        # 9 notifications reach the manager and invalidate 24 entries
        # (the Value updates are irrelevant to every function).
        assert maintained["invalidations"] == (9, 24)
        assert twin["invalidations"] == (0, 0)
