"""Unit tests for the GMR physical store (both MDS and column modes)."""

import dataclasses
import math
import random

import pytest

from repro import ObjectBase, Strategy
from repro.domains.geometry import build_figure2_database, build_geometry_schema
from repro.persistence import checkpoint, recover
from repro.storage.gmr_store import GMRStore, MDS_DIMENSION_LIMIT, in_range
from repro.storage.pages import BufferManager, PageStore


@pytest.fixture(params=["mds", "columns"])
def store(request):
    return GMRStore("test", arg_count=1, fct_count=2, storage=request.param)


class TestRowLifecycle:
    def test_ensure_row_starts_invalid(self, store):
        row = store.ensure_row(("o1",))
        assert row.valid == [False, False]
        assert row.results == [None, None]
        assert store.invalid_args(0) == {("o1",)}

    def test_ensure_row_idempotent(self, store):
        first = store.ensure_row(("o1",))
        second = store.ensure_row(("o1",))
        assert first is second
        assert len(store) == 1

    def test_get_missing(self, store):
        assert store.get(("nope",)) is None

    def test_remove_row(self, store):
        store.set_result(("o1",), 0, 1.0)
        assert store.remove_row(("o1",)) is True
        assert store.get(("o1",)) is None
        assert store.remove_row(("o1",)) is False

    def test_remove_clears_invalid_tracking(self, store):
        store.ensure_row(("o1",))
        store.remove_row(("o1",))
        assert store.invalid_args(0) == set()


class TestValidity:
    def test_set_result_validates(self, store):
        store.set_result(("o1",), 0, 10.0)
        row = store.get(("o1",))
        assert row.valid == [True, False]
        assert row.results[0] == 10.0
        assert not store.has_invalid(0)

    def test_mark_invalid(self, store):
        store.set_result(("o1",), 0, 10.0)
        assert store.mark_invalid(("o1",), 0) is True
        assert store.get(("o1",)).valid[0] is False
        assert store.invalid_args(0) == {("o1",)}

    def test_mark_invalid_already_invalid(self, store):
        store.ensure_row(("o1",))
        assert store.mark_invalid(("o1",), 0) is False

    def test_mark_invalid_missing_row(self, store):
        assert store.mark_invalid(("ghost",), 0) is False

    def test_revalidation_roundtrip(self, store):
        store.set_result(("o1",), 0, 1.0)
        store.mark_invalid(("o1",), 0)
        store.set_result(("o1",), 0, 2.0)
        assert store.get(("o1",)).results[0] == 2.0
        assert store.get(("o1",)).valid[0] is True


class TestCellAccessors:
    """The single-pass accessors of the forward-query and invalidation
    hot paths: one cell each of an absent row, an invalid cell, an ERROR
    cell and a valid cell."""

    @pytest.fixture
    def cells(self, store):
        store.ensure_row(("invalid",))
        store.set_result(("error",), 0, 7.0)
        store.mark_error(("error",), 0)
        store.set_result(("valid",), 0, 3.0)
        return store

    def test_probe(self, cells):
        assert cells.probe(("absent",), 0) == (None, False, False)
        assert cells.probe(("invalid",), 0) == (None, False, True)
        assert cells.probe(("error",), 0) == (7.0, False, True)
        assert cells.probe(("valid",), 0) == (3.0, True, True)
        # The other column of the valid row was never computed.
        assert cells.probe(("valid",), 1) == (None, False, True)

    def test_entry_cell_adds_the_error_flag(self, cells):
        assert cells.entry_cell(("absent",), 0) == (None, False, False, False)
        assert cells.entry_cell(("invalid",), 0) == (None, False, False, True)
        assert cells.entry_cell(("error",), 0) == (7.0, False, True, True)
        assert cells.entry_cell(("valid",), 0) == (3.0, True, False, True)

    def test_lookup_many_is_probe_in_input_order(self, cells):
        batch = [("valid",), ("absent",), ("error",), ("invalid",), ("valid",)]
        assert cells.lookup_many(batch, 0) == [
            cells.probe(args, 0) for args in batch
        ]
        assert cells.lookup_many([], 0) == []

    def test_mark_invalid_many_returns_only_transitions(self, cells):
        cells.set_result(("valid2",), 0, 4.0)
        batch = [("valid",), ("absent",), ("error",), ("invalid",), ("valid2",)]
        # Blind references (absent rows) and cells that are already
        # invalid (plain or ERROR) are skipped, not reported.
        assert cells.mark_invalid_many(batch, 0) == [("valid",), ("valid2",)]
        assert cells.probe(("valid",), 0) == (3.0, False, True)
        assert cells.get(("absent",)) is None
        assert cells.error_args(0) == {("error",)}
        assert cells.invalid_args(0) == {
            ("invalid",), ("error",), ("valid",), ("valid2",)
        }
        assert cells.mark_invalid_many(batch, 0) == []
        assert list(cells.backward(0)) == []

    def test_mark_invalid_many_leaves_other_columns_alone(self, cells):
        cells.set_result(("valid",), 1, 9.0)
        assert cells.mark_invalid_many([("valid",)], 0) == [("valid",)]
        assert cells.probe(("valid",), 1) == (9.0, True, True)


class TestBackward:
    @pytest.fixture(params=["mds", "columns"])
    def filled(self, request):
        store = GMRStore("bw", arg_count=1, fct_count=2, storage=request.param)
        for index in range(20):
            store.set_result((f"o{index}",), 0, float(index))
            store.set_result((f"o{index}",), 1, float(index * 10))
        return store

    def test_range(self, filled):
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 6.0, 7.0, 8.0]

    def test_exclusive_bounds(self, filled):
        hits = sorted(
            value
            for value, _ in filled.backward(
                0, 5.0, 8.0, include_low=False, include_high=False
            )
        )
        assert hits == [6.0, 7.0]

    def test_second_function_column(self, filled):
        hits = sorted(value for value, _ in filled.backward(1, 100.0, 120.0))
        assert hits == [100.0, 110.0, 120.0]

    def test_invalid_rows_not_returned(self, filled):
        filled.mark_invalid(("o6",), 0)
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 7.0, 8.0]

    def test_partially_valid_row_still_found(self, filled):
        # Invalidate f1 but not f0: f0's backward query must still see it.
        filled.mark_invalid(("o6",), 1)
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 6.0, 7.0, 8.0]

    def test_update_moves_entry(self, filled):
        filled.set_result(("o6",), 0, 100.0)
        hits = [value for value, _ in filled.backward(0, 99.0, 101.0)]
        assert hits == [100.0]
        assert all(value != 6.0 for value, _ in filled.backward(0, 5.0, 8.0))

    def test_removed_row_not_returned(self, filled):
        filled.remove_row(("o6",))
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 7.0, 8.0]


class TestStorageSelection:
    def test_auto_prefers_mds_for_low_arity(self):
        store = GMRStore("x", arg_count=1, fct_count=2, storage="auto")
        assert store.storage == "mds"
        assert 1 + 2 <= MDS_DIMENSION_LIMIT

    def test_auto_uses_columns_for_high_arity(self):
        store = GMRStore("x", arg_count=3, fct_count=3, storage="auto")
        assert store.storage == "columns"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GMRStore("x", arg_count=1, fct_count=1, storage="magic")

    def test_non_scalar_results_supported(self):
        store = GMRStore("x", arg_count=1, fct_count=1, storage="mds")
        store.set_result(("o1",), 0, ("complex", "value"))
        assert store.get(("o1",)).results[0] == ("complex", "value")
        # Non-scalar results are simply absent from range queries.
        assert list(store.backward(0, None, None)) == []


class TestNaNResults:
    """NaN compares false against every bound, so an ordered access path
    holding it would report it inside every range."""

    @pytest.fixture
    def with_nan(self, store):
        for index, value in enumerate([1.0, float("nan"), 2.0, 3.0]):
            store.set_result((f"o{index}",), 0, value)
            store.set_result((f"o{index}",), 1, 10.0)
        return store

    def test_nan_is_in_no_range(self, with_nan):
        ranges = [(0.5, 1.5), (10.0, 20.0), (None, None), (None, 2.0), (2.5, None)]
        for low, high in ranges:
            hits = [args for _, args in with_nan.backward(0, low, high)]
            assert ("o1",) not in hits, (low, high)
        assert sorted(value for value, _ in with_nan.backward(0)) == [1.0, 2.0, 3.0]

    def test_nan_row_keeps_its_other_column_and_its_value(self, with_nan):
        assert sorted(args for _, args in with_nan.backward(1, 10.0, 10.0)) == [
            ("o0",), ("o1",), ("o2",), ("o3",)
        ]
        value, valid, exists = with_nan.probe(("o1",), 0)
        assert math.isnan(value) and valid and exists

    def test_nan_leaves_and_reenters_the_access_path(self, with_nan):
        with_nan.mark_invalid(("o1",), 0)
        with_nan.set_result(("o1",), 0, 1.2)
        assert sorted(args for _, args in with_nan.backward(0, 0.5, 1.5)) == [
            ("o0",), ("o1",)
        ]
        with_nan.set_result(("o1",), 0, float("nan"))
        assert [args for _, args in with_nan.backward(0, 0.5, 1.5)] == [("o0",)]
        assert with_nan.remove_row(("o1",)) is True
        assert [args for _, args in with_nan.backward(0, 0.5, 1.5)] == [("o0",)]

    def test_nan_is_never_the_planner_sample(self, with_nan):
        with_nan.set_result(("o9",), 0, float("nan"))
        assert with_nan.sample_result(0) == 3.0

    def test_in_range_rejects_nan(self):
        nan = float("nan")
        for low, high in [(None, None), (0.0, 1.0), (None, 1.0), (0.0, None)]:
            assert not in_range(nan, low, high, include_low=True, include_high=True)


# ---------------------------------------------------------------------------
# The residual set against the per-query row walk it replaced
# ---------------------------------------------------------------------------


def _reference_partial_rows(store, fct_index):
    """The walk ``backward`` did before the residual set was tracked:
    every row, one grid-point test each, in row order."""
    return [
        args
        for args, row in store._rows.items()
        if row.valid[fct_index] and store._mds_point(row) is None
    ]


def _brute_force_residual(store):
    return {
        args
        for args, row in store._rows.items()
        if any(row.valid) and store._mds_point(row) is None
    }


def _mds_store(fct_count):
    return GMRStore(
        "diff",
        arg_count=1,
        fct_count=fct_count,
        page_store=PageStore(page_size=256),
        buffer=BufferManager(capacity=4),
        storage="mds",
    )


def _random_value(rng):
    kind = rng.randrange(10)
    if kind < 5:
        return round(rng.uniform(0.0, 10.0), 1)
    if kind < 7:
        return rng.randrange(11)
    if kind == 7:
        return float("nan")
    if kind == 8:
        return ("tuple", rng.randrange(3))
    return None


def _backward_reads(store, fct_index, low, high, include_low, include_high):
    before = dataclasses.astuple(store._buffer.stats)
    answer = list(
        store.backward(
            fct_index, low, high, include_low=include_low, include_high=include_high
        )
    )
    after = dataclasses.astuple(store._buffer.stats)
    return answer, tuple(now - then for now, then in zip(after, before))


class TestResidualDifferential:
    """Drive two MDS stores through one seeded random call sequence; the
    second answers backward queries with the old per-query row walk.  The
    tracked set must equal a brute-force recomputation after every step,
    and both stores must answer every range identically — same pairs, same
    order, same page touches."""

    @pytest.mark.parametrize("fct_count", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_tracked_residual_matches_the_row_walk(
        self, monkeypatch, fct_count, seed
    ):
        rng = random.Random(seed * 10 + fct_count)
        store, reference = _mds_store(fct_count), _mds_store(fct_count)
        monkeypatch.setattr(
            reference,
            "_partial_rows",
            lambda fct_index: _reference_partial_rows(reference, fct_index),
        )
        residual_seen = residual_answers = 0
        for _ in range(300):
            args = (rng.randrange(24),)
            fct_index = rng.randrange(fct_count)
            roll = rng.random()
            if roll < 0.1:
                call = ("ensure_row", args)
            elif roll < 0.6:
                call = ("set_result", args, fct_index, _random_value(rng))
            elif roll < 0.8:
                call = ("mark_invalid", args, fct_index)
            elif roll < 0.9:
                call = ("mark_error", args, fct_index)
            else:
                call = ("remove_row", args)
            for target in (store, reference):
                getattr(target, call[0])(*call[1:])
            assert store._residual == _brute_force_residual(store)
            residual_seen += bool(store._residual)

            low = rng.choice([None, round(rng.uniform(0.0, 10.0), 1)])
            high = rng.choice([None, round(rng.uniform(0.0, 10.0), 1)])
            bounds = (low, high, rng.random() < 0.5, rng.random() < 0.5)
            answer, reads = _backward_reads(store, fct_index, *bounds)
            expected, expected_reads = _backward_reads(reference, fct_index, *bounds)
            assert answer == expected
            assert reads == expected_reads
            residual_answers += any(args in store._residual for _, args in answer)
        assert residual_seen
        if fct_count > 1:  # one column: a residual result is never orderable
            assert residual_answers


class TestResidualSurvivesRecovery:
    def test_partially_valid_rows_answer_alike_after_recovery(self, tmp_path):
        db = ObjectBase()
        build_geometry_schema(db)
        fixture = build_figure2_database(db)
        gmr = db.materialize(
            [("Cuboid", "volume"), ("Cuboid", "weight")], strategy=Strategy.LAZY
        )
        # Lazily invalidates weight on the two iron cuboids; volume stays
        # valid, so both rows are valid but not grid points.
        fixture.iron.set_SpecWeight(8.0)
        iron_rows = {(fixture.cuboids[0].oid,), (fixture.cuboids[1].oid,)}
        assert gmr.store._residual == iron_rows

        def answers(base):
            live = base.gmr_manager.gmr_of("Cuboid.volume")
            return [
                list(live.backward(fid, low, high))
                for fid, low, high in [
                    ("Cuboid.volume", 150.0, 350.0),
                    ("Cuboid.volume", None, None),
                    ("Cuboid.weight", None, None),
                ]
            ]

        live_answers = answers(db)
        assert sorted(args for _, args in live_answers[0]) == sorted(iron_rows)
        path = str(tmp_path / "base.ckpt")
        checkpoint(db, path)
        recovered = ObjectBase()
        build_geometry_schema(recovered)
        recover(recovered, path)
        assert recovered.gmr_manager.gmr_of("Cuboid.volume").store._residual == (
            iron_rows
        )
        assert answers(recovered) == live_answers
