"""Transaction tests: rollback keeps every materialization consistent."""

import pytest

from repro import ObjectBase, Strategy
from repro.domains.geometry import (
    build_figure2_database,
    build_geometry_schema,
    create_vertex,
)
from repro.gom.transactions import TransactionError


@pytest.fixture
def setting():
    db = ObjectBase()
    build_geometry_schema(db)
    fixture = build_figure2_database(db)
    gmr = db.materialize([("Cuboid", "volume")])
    return db, fixture, gmr


class TestCommit:
    def test_commit_keeps_changes(self, setting):
        db, fixture, gmr = setting
        with db.transaction():
            fixture.cuboids[0].set_Value(99.0)
        assert fixture.cuboids[0].Value == 99.0

    def test_commit_keeps_materializations(self, setting):
        db, fixture, gmr = setting
        with db.transaction():
            fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
        assert fixture.cuboids[0].volume() == pytest.approx(600.0)
        assert gmr.check_consistency(db) == []

    def test_update_count(self, setting):
        db, fixture, _ = setting
        with db.transaction() as txn:
            fixture.cuboids[0].set_Value(1.0)
            fixture.cuboids[0].set_Value(2.0)
            assert txn.update_count == 2


class TestRollback:
    def test_exception_rolls_back_attribute(self, setting):
        db, fixture, gmr = setting
        before = fixture.cuboids[0].Value
        with pytest.raises(RuntimeError):
            with db.transaction():
                fixture.cuboids[0].set_Value(99.0)
                raise RuntimeError("boom")
        assert fixture.cuboids[0].Value == before

    def test_explicit_abort(self, setting):
        db, fixture, _ = setting
        before = fixture.cuboids[0].Value
        with db.transaction() as txn:
            fixture.cuboids[0].set_Value(99.0)
            txn.abort()
        assert fixture.cuboids[0].Value == before

    def test_rollback_restores_gmr(self, setting):
        """The undo replays through the instrumented paths: the GMR entry
        is rematerialized back to its original value."""
        db, fixture, gmr = setting
        original = fixture.cuboids[0].volume()
        with db.transaction() as txn:
            fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
            assert fixture.cuboids[0].volume() == pytest.approx(2 * original)
            txn.abort()
        assert fixture.cuboids[0].volume() == pytest.approx(original)
        assert gmr.check_consistency(db) == []
        assert gmr.is_complete(db)

    def test_rollback_restores_lazy_gmr(self):
        db = ObjectBase()
        build_geometry_schema(db)
        fixture = build_figure2_database(db)
        gmr = db.materialize([("Cuboid", "volume")], strategy=Strategy.LAZY)
        with db.transaction() as txn:
            fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
            txn.abort()
        assert fixture.cuboids[0].volume() == pytest.approx(300.0)
        assert gmr.check_consistency(db) == []

    def test_rollback_restores_collections(self, setting):
        db, fixture, _ = setting
        total_gmr = db.materialize([("Workpieces", "total_volume")])
        before = fixture.workpieces.total_volume()
        with db.transaction() as txn:
            fixture.workpieces.insert(fixture.cuboids[2])
            fixture.workpieces.remove(fixture.cuboids[0])
            txn.abort()
        assert fixture.workpieces.total_volume() == pytest.approx(before)
        assert len(fixture.workpieces) == 2
        assert total_gmr.check_consistency(db) == []

    def test_rollback_deletes_created_objects(self, setting):
        from repro.domains.geometry import create_cuboid

        db, fixture, gmr = setting
        count_before = len(db.extension("Cuboid"))
        with db.transaction() as txn:
            create_cuboid(db, dims=(2, 2, 2), material=fixture.iron)
            txn.abort()
        assert len(db.extension("Cuboid")) == count_before
        assert len(gmr) == count_before
        assert gmr.is_complete(db)

    def test_rollback_in_reverse_order(self, setting):
        db, fixture, _ = setting
        cuboid = fixture.cuboids[0]
        with db.transaction() as txn:
            cuboid.set_Value(1.0)
            cuboid.set_Value(2.0)
            cuboid.set_Value(3.0)
            txn.abort()
        assert cuboid.Value == pytest.approx(39.99)  # the Figure 2 value


class TestNesting:
    def test_inner_commit_outer_rollback(self, setting):
        db, fixture, _ = setting
        before = fixture.cuboids[0].Value
        with db.transaction() as outer:
            with db.transaction():
                fixture.cuboids[0].set_Value(50.0)
            fixture.cuboids[0].set_Value(60.0)
            outer.abort()
        assert fixture.cuboids[0].Value == before

    def test_inner_rollback_outer_commit(self, setting):
        db, fixture, _ = setting
        with db.transaction():
            fixture.cuboids[0].set_Value(50.0)
            with db.transaction() as inner:
                fixture.cuboids[0].set_Value(60.0)
                inner.abort()
        assert fixture.cuboids[0].Value == 50.0


class TestDeleteRestriction:
    def test_delete_inside_transaction_rejected(self, setting):
        db, fixture, _ = setting
        with pytest.raises(TransactionError):
            with db.transaction():
                db.delete(fixture.cuboids[0])
        # The rejected delete did not happen.
        assert db.objects.exists(fixture.cuboids[0].oid)

    def test_delete_outside_transaction_fine(self, setting):
        db, fixture, _ = setting
        db.transactions  # instantiate the manager
        db.delete(fixture.cuboids[0])
        assert not db.objects.exists(fixture.cuboids[0].oid)

    def test_mismatched_completion_rejected(self, setting):
        db, _, _ = setting
        manager = db.transactions
        outer = manager.begin()
        inner = manager.begin()
        with pytest.raises(TransactionError):
            manager.commit(outer)
        manager.commit(inner)
        manager.commit(outer)
