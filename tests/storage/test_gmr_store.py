"""Unit tests for the GMR physical store (both MDS and column modes)."""

import pytest

from repro.storage.gmr_store import GMRStore, MDS_DIMENSION_LIMIT


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
