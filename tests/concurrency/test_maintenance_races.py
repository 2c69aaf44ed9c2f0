"""Regression tests for maintenance entry points racing the pool.

The review-found bugs these pin down:

* ``vacuum()`` / ``force_invalidate_all()`` used to mutate store state
  (index removal, page frees, validity bits) without the update lock,
  silently corrupting shared index structures when a worker-pool drain
  ran concurrently;
* ``quiesce()`` could never converge when the calling thread already
  held the update lock (workers block on it) — it now detects that
  and drains synchronously;
* ``stop()`` never checked ``is_alive()`` after the timed join, so a
  worker stuck behind a long-held update lock could outlive
  ``db.close()`` and append to a closed WAL.
"""

from __future__ import annotations

import threading

import pytest

from repro import ObjectBase
from repro.core.strategies import Strategy
from repro.domains.geometry import build_geometry_schema, create_cuboid
from repro.observe.config import MaterializationConfig

JOIN = 30.0


def _build(workers: int, n_cuboids: int = 8):
    config = MaterializationConfig(strategy=Strategy.DEFERRED, workers=workers)
    db = ObjectBase(config=config)
    build_geometry_schema(db)
    iron = db.new("Material", Name="Iron", SpecWeight=7.86)
    cuboids = [
        create_cuboid(
            db,
            origin=(float(i), 0.0, 0.0),
            dims=(1.0 + i, 2.0, 3.0),
            material=iron,
            cuboid_id=i,
        )
        for i in range(n_cuboids)
    ]
    gmr = db.materialize(
        [("Cuboid", "volume"), ("Cuboid", "weight")],
        strategy=Strategy.DEFERRED,
    )
    return db, cuboids, gmr


def _join(threads):
    for thread in threads:
        thread.join(JOIN)
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        pytest.fail(f"threads did not finish (deadlock?): {alive}")


def _settle_and_check(db):
    assert db.quiesce(timeout=JOIN) is True
    manager = db.gmr_manager
    for gmr in manager.gmrs():
        assert gmr.check_consistency(db) == []
    assert manager.verify_lockstep() == []


class TestMaintenanceRacesPool:
    @pytest.mark.timeout(120)
    def test_vacuum_races_pool_drain(self):
        db, cuboids, gmr = _build(workers=2, n_cuboids=10)
        try:
            grow = db.new("Vertex", X=2.0, Y=1.0, Z=1.0)
            shrink = db.new("Vertex", X=0.5, Y=1.0, Z=1.0)
            errors: list[BaseException] = []

            def writer(partition):
                try:
                    for _ in range(6):
                        for cuboid in partition:
                            cuboid.scale(grow)
                            cuboid.scale(shrink)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            # The last few cuboids are deleted mid-race so vacuum has
            # blind rows to find; writers only touch the survivors.
            survivors, doomed = cuboids[:6], cuboids[6:]
            threads = [
                threading.Thread(target=writer, args=(survivors[i::2],))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for cuboid in doomed:
                db.delete(cuboid)
                db.gmr_manager.vacuum()
            for _ in range(10):
                db.gmr_manager.vacuum(gmr)
            _join(threads)
            assert errors == []
            _settle_and_check(db)
            assert db.gmr_manager.vacuum() == 0
            live = {row.args for row in gmr.store.rows()}
            assert all((c.oid,) not in live for c in doomed)
        finally:
            db.close()

    @pytest.mark.timeout(120)
    def test_force_invalidate_all_races_pool_drain(self):
        db, cuboids, gmr = _build(workers=2)
        try:
            grow = db.new("Vertex", X=2.0, Y=1.0, Z=1.0)
            shrink = db.new("Vertex", X=0.5, Y=1.0, Z=1.0)
            errors: list[BaseException] = []

            def writer():
                try:
                    for _ in range(6):
                        for cuboid in cuboids:
                            cuboid.scale(grow)
                            cuboid.scale(shrink)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            thread = threading.Thread(target=writer)
            thread.start()
            for _ in range(8):
                db.gmr_manager.force_invalidate_all(gmr)
            _join([thread])
            assert errors == []
            _settle_and_check(db)
        finally:
            db.close()


class TestQuiesceUnderUpdateLock:
    @pytest.mark.timeout(60)
    def test_quiesce_while_holding_update_lock_drains_synchronously(self):
        db, cuboids, gmr = _build(workers=1)
        try:
            grow = db.new("Vertex", X=2.0, Y=1.0, Z=1.0)
            db._update_lock.acquire()
            try:
                # Enqueue work while the workers are locked out: without
                # the self-held-lock detection this would spin for the
                # full timeout and return False.
                for cuboid in cuboids:
                    cuboid.scale(grow)
                assert db.quiesce(timeout=5.0) is True
                assert db.gmr_manager.scheduler.ready_pending() == 0
            finally:
                db._update_lock.release()
            _settle_and_check(db)
        finally:
            db.close()


class TestStopStragglers:
    @pytest.mark.timeout(60)
    def test_stop_reports_a_worker_stuck_on_the_update_lock(self):
        db, cuboids, gmr = _build(workers=1)
        pool = db.worker_pool
        grow = db.new("Vertex", X=2.0, Y=1.0, Z=1.0)
        db._update_lock.acquire()
        released = False
        try:
            cuboids[0].scale(grow)
            pool.notify()
            # Wait for the worker to claim the drain and block on the
            # update lock we hold.
            deadline = 100
            while pool._active == 0 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            assert pool._active >= 1, "worker never reached the drain"
            with pytest.warns(RuntimeWarning, match="did not exit"):
                assert pool.stop(timeout=0.2) is False
            assert pool._threads, "straggler must stay joinable"
        finally:
            db._update_lock.release()
            released = True
        assert released
        # Lock released: the straggler drains, sees stopping, exits.
        assert pool.stop(timeout=JOIN) is True
        assert not pool._threads
        db.close()
