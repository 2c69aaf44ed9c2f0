"""Tests for the optional/extension features beyond the paper's core:
manager statistics, capped cache GMRs and blind-row vacuuming."""

import pytest

from repro import Strategy
from repro.domains.geometry import create_vertex
from repro.errors import GMRDefinitionError


class TestManagerStats:
    def test_forward_hits_and_computes(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        stats = db.gmr_manager.stats
        before = stats.snapshot()
        fixture.cuboids[0].volume()      # hit
        fixture.cuboids[0].volume()      # hit
        delta = stats.delta(before)
        assert delta.forward_hits == 2
        assert delta.forward_computes == 0

    def test_invalidation_counters(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        stats = db.gmr_manager.stats
        before = stats.snapshot()
        fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
        delta = stats.delta(before)
        assert delta.invalidate_calls == 12
        assert delta.rematerializations == 12

    def test_lazy_defers_visible_in_stats(self, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")], strategy=Strategy.LAZY)
        stats = db.gmr_manager.stats
        before = stats.snapshot()
        fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
        assert stats.delta(before).rematerializations == 0
        fixture.cuboids[0].volume()
        assert stats.delta(before).rematerializations == 1
        assert stats.delta(before).forward_computes == 1

    def test_compensation_counter(self, geometry_db):
        from repro.domains.geometry import increase_total

        db, fixture = geometry_db
        db.materialize([("Workpieces", "total_volume")])
        db.gmr_manager.register_compensation(
            "Workpieces", "insert", ("Workpieces", "total_volume"), increase_total
        )
        before = db.gmr_manager.stats.snapshot()
        fixture.workpieces.insert(fixture.cuboids[2])
        delta = db.gmr_manager.stats.delta(before)
        assert delta.compensations == 1
        assert delta.rematerializations == 0


class TestCappedCacheGMR:
    def test_capacity_requires_incomplete(self, point_db):
        with pytest.raises(GMRDefinitionError):
            point_db.materialize([("Point", "norm")], capacity=5)

    def test_capacity_must_be_positive(self, point_db):
        with pytest.raises(GMRDefinitionError):
            point_db.materialize(
                [("Point", "norm")], complete=False, capacity=0
            )

    def test_lru_eviction(self, point_db):
        points = [
            point_db.new("Point", X=float(i), Y=0.0) for i in range(6)
        ]
        gmr = point_db.materialize(
            [("Point", "norm")], complete=False, capacity=3
        )
        for point in points[:3]:
            point.norm()
        assert len(gmr) == 3
        points[3].norm()  # evicts points[0]
        assert len(gmr) == 3
        assert gmr.evictions == 1
        assert gmr.lookup((points[0].oid,)) is None
        assert gmr.lookup((points[3].oid,)) is not None

    def test_access_refreshes_recency(self, point_db):
        points = [
            point_db.new("Point", X=float(i), Y=0.0) for i in range(4)
        ]
        gmr = point_db.materialize(
            [("Point", "norm")], complete=False, capacity=2
        )
        points[0].norm()
        points[1].norm()
        points[0].norm()  # 1 becomes LRU
        points[2].norm()  # evicts 1
        assert gmr.lookup((points[0].oid,)) is not None
        assert gmr.lookup((points[1].oid,)) is None

    def test_evicted_entries_recomputed_on_demand(self, point_db):
        points = [
            point_db.new("Point", X=3.0 * (i + 1), Y=4.0 * (i + 1))
            for i in range(4)
        ]
        point_db.materialize([("Point", "norm")], complete=False, capacity=2)
        values = [point.norm() for point in points]
        assert values == [5.0, 10.0, 15.0, 20.0]
        # points[0] was evicted; recomputation still yields its value.
        assert points[0].norm() == 5.0

    def test_cache_stays_consistent_under_updates(self, point_db):
        points = [
            point_db.new("Point", X=float(i + 1), Y=0.0) for i in range(5)
        ]
        gmr = point_db.materialize(
            [("Point", "norm")], complete=False, capacity=3
        )
        for point in points:
            point.norm()
        points[-1].set_X(100.0)
        assert points[-1].norm() == 100.0
        assert gmr.check_consistency(point_db) == []


class TestVacuum:
    def test_vacuum_removes_blind_rows(self, geometry_db):
        db, fixture = geometry_db
        gmr = db.materialize([("Cuboid", "volume")], strategy=Strategy.LAZY)
        victim = fixture.cuboids[0]
        victim.scale(create_vertex(db, 2.0, 1.0, 1.0))  # lazily invalidated
        oid = victim.oid
        db.delete(victim)
        # The lazily-invalidated row may linger (its RRR entries were
        # consumed by the invalidation) — vacuum sweeps it.
        removed = db.gmr_manager.vacuum(gmr)
        assert gmr.lookup((oid,)) is None
        assert gmr.is_complete(db)

    def test_vacuum_all_gmrs(self, geometry_db):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        assert db.gmr_manager.vacuum() == 0
