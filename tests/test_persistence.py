"""Persistence tests: dump / load round-trips."""

import json

import pytest

from repro import ObjectBase, RestrictionSpec, Strategy, Variable
from repro.domains.geometry import (
    build_figure2_database,
    build_geometry_schema,
    create_vertex,
)
from repro.persistence import (
    PersistenceError,
    base_state,
    checkpoint,
    dump_object_base,
    from_document,
    load_object_base,
    recover,
    to_document,
)
from repro.storage.gmr_store import GMRStore


@pytest.fixture
def dumped(tmp_path, geometry_db):
    db, fixture = geometry_db
    db.create_attr_index("Cuboid", "CuboidID")
    db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")])
    path = tmp_path / "base.json"
    dump_object_base(db, str(path))
    return db, fixture, path


def fresh_db():
    db = ObjectBase()
    build_geometry_schema(db)
    return db


class TestRoundTrip:
    def test_objects_survive(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        assert len(db.extension("Cuboid")) == 3
        reloaded = db.handle(fixture.cuboids[0].oid)
        assert reloaded.CuboidID == 1
        assert reloaded.Mat.Name == "Iron"

    def test_oids_preserved_and_generator_advanced(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        existing = {oid.value for oid in db.objects.oids()}
        fresh = db.new("Material", Name="X", SpecWeight=1.0)
        assert fresh.oid.value not in existing
        assert fresh.oid.value > max(existing)

    def test_gmr_extension_survives(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        gmr = db.gmr_manager.gmr("<<volume, weight>>")
        assert len(gmr) == 3
        value, valid = gmr.result((fixture.cuboids[0].oid,), "Cuboid.volume")
        assert valid and value == pytest.approx(300.0)
        assert gmr.check_consistency(db) == []
        assert gmr.is_complete(db)

    def test_maintenance_continues_after_load(self, dumped):
        """The RRR travelled with the dump: updates still invalidate."""
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        cuboid = db.handle(fixture.cuboids[0].oid)
        cuboid.scale(create_vertex(db, 2.0, 1.0, 1.0))
        gmr = db.gmr_manager.gmr("<<volume, weight>>")
        value, valid = gmr.result((cuboid.oid,), "Cuboid.volume")
        assert valid and value == pytest.approx(600.0)
        assert gmr.check_consistency(db) == []

    def test_obj_dep_fct_rebuilt(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        obj = db.objects.get(fixture.cuboids[0].oid)
        assert "Cuboid.volume" in obj.obj_dep_fct

    def test_attr_index_rebuilt(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        index = db.attr_index("Cuboid", "CuboidID")
        assert index is not None
        assert index.search(2)

    def test_queries_work_after_load(self, dumped):
        original, fixture, path = dumped
        db = fresh_db()
        load_object_base(db, str(path))
        result = db.query("range c: Cuboid retrieve c where c.volume > 250.0")
        assert [h.oid for h in result] == [fixture.cuboids[0].oid]


class TestEdgeCases:
    def test_load_requires_empty_base(self, dumped):
        _, _, path = dumped
        db = fresh_db()
        build_figure2_database(db)
        with pytest.raises(PersistenceError):
            load_object_base(db, str(path))

    def test_format_version_checked(self, geometry_db):
        db, _ = geometry_db
        document = to_document(db)
        document["format"] = 999
        with pytest.raises(PersistenceError):
            from_document(fresh_db(), document)

    def test_lazy_invalid_rows_survive_as_invalid(self, tmp_path):
        db = ObjectBase()
        build_geometry_schema(db)
        fixture = build_figure2_database(db)
        gmr = db.materialize([("Cuboid", "volume")], strategy=Strategy.LAZY)
        fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
        path = tmp_path / "lazy.json"
        dump_object_base(db, str(path))

        reloaded = fresh_db()
        load_object_base(reloaded, str(path))
        restored = reloaded.gmr_manager.gmr("<<volume>>")
        assert not restored.is_valid("Cuboid.volume")
        # First access recomputes the fresh value.
        assert reloaded.handle(fixture.cuboids[0].oid).volume() == pytest.approx(
            600.0
        )
        assert restored.check_consistency(reloaded) == []

    def test_non_serializable_results_reload_invalid(self, tmp_path, company_db):
        db, fixture = company_db
        gmr = db.materialize([("Company", "matrix")])
        path = tmp_path / "company.json"
        dump_object_base(db, str(path))

        reloaded = ObjectBase()
        from repro.domains.company import build_company_schema

        build_company_schema(reloaded)
        load_object_base(reloaded, str(path))
        restored = reloaded.gmr_manager.gmr("<<matrix>>")
        assert not restored.is_valid("Company.matrix")
        lines = reloaded.handle(fixture.company.oid).matrix()
        assert lines  # recomputed on demand
        assert restored.is_valid("Company.matrix")

    def test_restricted_gmr_needs_spec(self, tmp_path, geometry_db):
        db, _ = geometry_db
        db.query(
            'range c: Cuboid materialize c.volume where c.Mat.Name = "Iron"'
        )
        path = tmp_path / "restricted.json"
        dump_object_base(db, str(path))

        with pytest.raises(PersistenceError):
            load_object_base(fresh_db(), str(path))

    def test_restricted_gmr_round_trip(self, tmp_path, geometry_db):
        db, fixture = geometry_db
        db.query(
            'range c: Cuboid materialize c.volume where c.Mat.Name = "Iron"'
        )
        name = db.gmr_manager.gmrs()[0].name
        path = tmp_path / "restricted.json"
        dump_object_base(db, str(path))

        spec = RestrictionSpec(
            predicate=Variable("c", ("Mat", "Name")).eq("Iron"),
            var_names=("c",),
        )
        reloaded = fresh_db()
        load_object_base(reloaded, str(path), restrictions={name: spec})
        gmr = reloaded.gmr_manager.gmr(name)
        assert len(gmr) == 2
        # Predicate maintenance still works after the reload.
        reloaded.handle(fixture.cuboids[2].oid).set_Mat(
            db.handle(fixture.iron.oid).oid
        )
        assert len(gmr) == 3
        assert gmr.is_complete(reloaded)


class TestInFlightStateRejected:
    """The round-trip gap: in-flight batch/transaction state used to be
    silently dropped on dump; now the dump refuses outright."""

    def test_dump_rejects_open_batch(self, tmp_path, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        scope = db.batch()
        scope.__enter__()
        try:
            fixture.cuboids[0].set_Value(9.99)
            with pytest.raises(PersistenceError, match="batch"):
                to_document(db)
        finally:
            scope.__exit__(None, None, None)
        to_document(db)  # fine once flushed

    def test_dump_rejects_open_transaction(self, geometry_db):
        db, fixture = geometry_db
        with db.transaction():
            fixture.cuboids[0].set_Value(1.0)
            with pytest.raises(PersistenceError, match="transaction"):
                to_document(db)
        to_document(db)  # fine once committed


class TestSchedulerAndStatsRoundTrip:
    def _deferred_db(self):
        db = fresh_db()
        fixture = build_figure2_database(db)
        db.materialize(
            [("Cuboid", "volume"), ("Cuboid", "weight")],
            strategy=Strategy.DEFERRED,
        )
        return db, fixture

    def test_pending_revalidations_survive(self, tmp_path):
        db, fixture = self._deferred_db()
        fixture.cuboids[0].scale(create_vertex(db, 2.0, 1.0, 1.0))
        pending = db.gmr_manager.scheduler.pending()
        assert pending > 0
        path = tmp_path / "deferred.json"
        dump_object_base(db, str(path))

        reloaded = fresh_db()
        load_object_base(reloaded, str(path))
        scheduler = reloaded.gmr_manager.scheduler
        assert scheduler.pending() == pending
        assert scheduler.dump_state() == db.gmr_manager.scheduler.dump_state()
        # The restored queue is drainable: the sweep revalidates every
        # pending entry against the restored base.
        drained = scheduler.revalidate()
        assert drained > 0
        gmr = reloaded.gmr_manager.gmr("<<volume, weight>>")
        assert all(all(row.valid) for row in gmr.rows())

    def test_query_frequencies_survive(self, tmp_path):
        db, fixture = self._deferred_db()
        for _ in range(3):
            fixture.cuboids[0].volume()
        path = tmp_path / "freq.json"
        dump_object_base(db, str(path))
        reloaded = fresh_db()
        load_object_base(reloaded, str(path))
        assert (
            reloaded.gmr_manager.scheduler.query_frequency
            == db.gmr_manager.scheduler.query_frequency
        )

    def test_manager_stats_survive(self, tmp_path):
        db, fixture = self._deferred_db()
        fixture.cuboids[1].set_Mat(fixture.gold)
        fixture.cuboids[1].weight()
        before = vars(db.gmr_manager.stats)
        path = tmp_path / "stats.json"
        dump_object_base(db, str(path))
        reloaded = fresh_db()
        load_object_base(reloaded, str(path))
        assert vars(reloaded.gmr_manager.stats) == before

    def test_old_documents_without_scheduler_still_load(self, tmp_path, geometry_db):
        db, fixture = geometry_db
        db.materialize([("Cuboid", "volume")])
        document = to_document(db)
        document.pop("stats")
        document.pop("scheduler")
        reloaded = fresh_db()
        from_document(reloaded, document)
        assert len(reloaded.extension("Cuboid")) == 3


class TestRemovedLayoutKey:
    def test_checkpoint_written_with_a_layout_key_recovers(self, dumped):
        """Bases between PR 10 and PR 12 wrote a per-GMR ``"layout"``
        (``"rows"`` or ``"columnar"``); there is one store now and the
        key is ignored, never an error."""
        db, fixture, path = dumped
        path = str(path)
        checkpoint(db, path)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["gmrs"]
        for entry in document["gmrs"]:
            assert "layout" not in entry
            entry["layout"] = "columnar"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        recovered = fresh_db()
        recover(recovered, path)
        for gmr in recovered.gmr_manager.gmrs():
            assert type(gmr.store) is GMRStore
        assert base_state(recovered) == base_state(db)


class TestRemovedGmrSpellings:
    """A checkpoint is outside input: a spelling this version does not
    implement is refused with a ``PersistenceError`` naming the GMR and
    the field, never a raw ``ValueError`` / ``TypeError``."""

    @staticmethod
    def _document(geometry_db, **fields):
        db, _ = geometry_db
        db.materialize([("Cuboid", "volume")])
        document = to_document(db)
        (entry,) = document["gmrs"]
        entry.update(fields)
        return db, document

    @pytest.mark.parametrize(
        "field,value",
        [
            ("strategy", "snapshot"),
            ("strategy", "eventually"),
            ("row_placement", "with_arguments"),
        ],
    )
    def test_unimplemented_spelling_is_refused_by_name(
        self, geometry_db, field, value
    ):
        _, document = self._document(geometry_db, **{field: value})
        with pytest.raises(PersistenceError) as raised:
            from_document(fresh_db(), document)
        message = str(raised.value)
        assert "<<volume>>" in message
        assert field in message and value in message

    def test_separate_row_placement_from_older_checkpoints_loads(self, geometry_db):
        db, document = self._document(geometry_db)
        (entry,) = document["gmrs"]
        assert "row_placement" not in entry
        entry["row_placement"] = "separate"
        reloaded = fresh_db()
        from_document(reloaded, document)
        assert base_state(reloaded) == base_state(db)


class TestOidAllocatorRoundTrip:
    """OIDs burned by deleted objects must stay burned after a reload.

    Found by the durability state machine: a live process and a
    checkpoint-reloaded one diverged on the OID of the next created
    object whenever the highest allocated OID belonged to a deleted
    object (restore() can only advance past *surviving* OIDs)."""

    def test_deleted_high_oid_not_reissued(self, tmp_path, geometry_db):
        db, fixture = geometry_db
        doomed = db.new("Material", Name="scrap", SpecWeight=0.1)
        burned = doomed.oid
        db.delete(burned)
        path = tmp_path / "oids.json"
        dump_object_base(db, str(path))
        reloaded = fresh_db()
        load_object_base(reloaded, str(path))
        assert reloaded.objects.peek_next_oid() == db.objects.peek_next_oid()
        replacement = reloaded.new("Material", Name="new", SpecWeight=0.2)
        assert replacement.oid != burned

    def test_old_documents_without_next_oid_still_load(self, geometry_db):
        db, fixture = geometry_db
        document = to_document(db)
        document.pop("next_oid")
        reloaded = fresh_db()
        from_document(reloaded, document)
        # Without the field the allocator still clears every live OID.
        assert (
            reloaded.objects.peek_next_oid().value
            >= max(h.oid.value for h in reloaded.extension("Vertex"))
        )
