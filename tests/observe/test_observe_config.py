"""MaterializationConfig wiring, report dataclasses,
and the checkpoint/recover coherence of observability state."""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    CheckpointReport,
    FlushReport,
    InstrumentationLevel,
    MaterializationConfig,
    ObjectBase,
    ObserveConfig,
    RecoveryReport,
    Strategy,
    checkpoint,
    recover,
)
from repro.core.guard import FaultPolicy


def make_point_db(**kwargs) -> ObjectBase:
    db = ObjectBase(**kwargs)
    db.define_tuple_type("Point", {"X": "float", "Y": "float"})
    db.define_operation(
        "Point", "norm", [], "float",
        lambda self: (self.X * self.X + self.Y * self.Y) ** 0.5,
    )
    return db


class TestMaterializationConfig:
    def test_config_sets_the_default_strategy(self):
        db = make_point_db(
            config=MaterializationConfig(strategy=Strategy.LAZY)
        )
        p = db.new("Point", X=3.0, Y=4.0)
        gmr = db.materialize([("Point", "norm")])
        assert gmr.strategy is Strategy.LAZY
        p.set_X(6.0)
        assert gmr.entry_state((p.oid,), "Point.norm") == "invalid"

    def test_explicit_strategy_still_wins(self):
        db = make_point_db(
            config=MaterializationConfig(strategy=Strategy.LAZY)
        )
        gmr = db.materialize(
            [("Point", "norm")], strategy=Strategy.IMMEDIATE
        )
        assert gmr.strategy is Strategy.IMMEDIATE

    def test_config_level_is_the_single_source_of_truth(self):
        db = ObjectBase(
            config=MaterializationConfig(
                level=InstrumentationLevel.SCHEMA_DEP
            )
        )
        assert db.level is InstrumentationLevel.SCHEMA_DEP
        db.level = InstrumentationLevel.NAIVE
        assert db.config.level is InstrumentationLevel.NAIVE

    def test_level_keyword_alone_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = ObjectBase(level=InstrumentationLevel.NAIVE)
        assert db.level is InstrumentationLevel.NAIVE

    def test_level_plus_config_raises(self):
        config = MaterializationConfig(
            level=InstrumentationLevel.SCHEMA_DEP
        )
        with pytest.raises(ValueError, match="level"):
            ObjectBase(level=InstrumentationLevel.NAIVE, config=config)

    def test_batching_off_makes_batch_scopes_pass_through(self):
        db = make_point_db(config=MaterializationConfig(batching=False))
        p = db.new("Point", X=3.0, Y=4.0)
        db.materialize([("Point", "norm")])
        with db.batch():
            p.set_X(6.0)
            # Batching off: the notification processed eagerly.
            assert len(db.gmr_manager._queue) == 0

    def test_fault_policy_flows_from_the_config(self):
        policy = FaultPolicy(max_attempts=2, failure_threshold=7)
        db = make_point_db(
            config=MaterializationConfig(fault_policy=policy)
        )
        manager = db.gmr_manager
        assert manager.fault_policy is policy
        assert manager.guard.policy is policy
        assert manager.breaker.policy is policy


class TestReportDataclasses:
    def test_flush_report_is_int_and_bool_compatible(self):
        db = make_point_db()
        p = db.new("Point", X=3.0, Y=4.0)
        db.new("Point", X=1.0, Y=2.0)
        db.materialize([("Point", "norm")])
        manager = db.gmr_manager
        manager._batch_depth += 1  # open a scope by hand to flush manually
        p.set_X(6.0)
        p.set_Y(7.0)
        manager._batch_depth -= 1
        report = manager.flush_batch()
        assert isinstance(report, FlushReport)
        assert report.events == 1  # coalesced into one event
        assert report.invalidations == 1
        assert int(report) == 1
        assert report == 1
        assert bool(report)
        empty = manager.flush_batch()
        assert empty == 0
        assert not empty

    def test_checkpoint_and_recovery_reports_are_frozen(self, tmp_path):
        db = make_point_db()
        db.new("Point", X=3.0, Y=4.0)
        db.materialize([("Point", "norm")])
        path = str(tmp_path / "checkpoint.json")
        report = checkpoint(db, path)
        assert isinstance(report, CheckpointReport)
        assert report.path == path
        assert report.objects == 1
        assert report.gmr_rows == 1
        assert report.wal_truncated is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.objects = 99

        fresh = make_point_db()
        recovery = recover(fresh, path)
        assert isinstance(recovery, RecoveryReport)
        assert recovery.records_replayed == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            recovery.records_replayed = 99


class TestObserveStateDurability:
    def test_metrics_and_tallies_survive_checkpoint_recover(self, tmp_path):
        db = make_point_db()
        p = db.new("Point", X=3.0, Y=4.0)
        db.materialize([("Point", "norm")])
        p.set_X(6.0)
        registry = db.observe.metrics
        probes_before = registry.get("rrr.probes").value
        remats_before = registry.get("remat.count").value
        assert probes_before > 0 and remats_before > 0
        tallies_before = {
            fid: dict(tally)
            for fid, tally in db.gmr_manager.fid_tallies.items()
        }

        path = str(tmp_path / "checkpoint.json")
        checkpoint(db, path)

        fresh = make_point_db()
        recover(fresh, path)
        restored = fresh.observe.metrics
        assert restored.get("rrr.probes").value == probes_before
        assert restored.get("remat.count").value == remats_before
        hist = restored.get("wave.width")
        assert hist.count == registry.get("wave.width").count
        assert {
            fid: dict(tally)
            for fid, tally in fresh.gmr_manager.fid_tallies.items()
        } == tallies_before
        # The recovered explain report keeps counting from the old total.
        assert fresh.explain().totals["probes"] == probes_before

    def test_recovery_emits_the_trace_marker(self, tmp_path):
        db = make_point_db()
        db.new("Point", X=3.0, Y=4.0)
        db.materialize([("Point", "norm")])
        path = str(tmp_path / "checkpoint.json")
        checkpoint(db, path)

        fresh = make_point_db(
            config=MaterializationConfig(
                observe=ObserveConfig(trace=True)
            )
        )
        recover(fresh, path)
        events = fresh.observe.events()
        marker = events[-1]
        assert marker.name == "recovery"
        assert marker.seq == 1  # a fresh timeline starts at the marker
        assert marker.fields["checkpoint"] == path
        assert marker.fields["records_replayed"] == 0
