"""Physical representation of GMR extensions (Sec. 3.3).

Authoritative row data lives in an argument-keyed table (rows placed on
simulated pages, clustered per GMR); secondary access paths are chosen
per the paper:

* for GMRs whose total dimensionality ``n + m`` is at most
  :data:`MDS_DIMENSION_LIMIT`, a grid file over ``(O1..On, f1..fm)`` — the
  single multi-dimensional storage structure (MDS) of the paper's
  Figure 3;
* otherwise, per-function B+ tree indexes over the result columns ("more
  conventional indexing schemes ... for GMRs of higher arity").

Only *valid*, scalar results are indexed, and only orderable ones (not
NaN, which fails every comparison); invalidating a result removes it
from the access path, revalidating reinserts it, so backward range
lookups never return stale values.

A grid-file point needs *every* column valid and orderable.  The rows
that are valid for some column but are not a point — the *residual* —
are tracked as they change (:meth:`GMRStore.set_result`,
:meth:`~GMRStore.mark_invalid`, :meth:`~GMRStore.mark_error`,
:meth:`~GMRStore.remove_row`), so a backward query reads the grid file
plus that set and never walks the whole row table.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from typing import Any

from repro.storage.btree import BPlusTree
from repro.storage.gridfile import GridFile
from repro.storage.pages import BufferManager, PageStore, Placement

#: Shared no-op context for the single-threaded (``locks is None``) case.
_NULL_CTX = nullcontext()

#: Grid files degrade beyond three or four dimensions (Sec. 3.3).
MDS_DIMENSION_LIMIT = 4

_ROW_BASE_SIZE = 16
_FIELD_SIZE = 12


_SCALAR_TYPES = (int, float, str, bool)


def _is_scalar(value: Any) -> bool:
    """Can ``value`` be put into an ordered access path?  NaN cannot:
    it compares false against everything, so every range would take it."""
    return isinstance(value, _SCALAR_TYPES) and value == value


class GMRRow:
    """One GMR tuple: arguments, per-function results and validity bits.

    ``error`` refines invalidity: an entry whose *last rematerialization
    attempt failed* under the execution guard carries ``valid=False,
    error=True`` — the ERROR validity state.  Error entries never
    participate in retrieval (they are invalid) and the flag clears on
    the next successful :meth:`GMRStore.set_result`.
    """

    __slots__ = ("args", "results", "valid", "error", "support", "placement")

    def __init__(self, args: tuple, fct_count: int, placement: Placement) -> None:
        self.args = args
        self.results: list[Any] = [None] * fct_count
        self.valid: list[bool] = [False] * fct_count
        self.error: list[bool] = [False] * fct_count
        #: Per-column support state of the delta maintenance engine
        #: (``None`` until a self-maintainable aggregate patches the
        #: row): ``{fct_index: state_dict}``.  Derived from the result
        #: — any transition of the result (set/invalidate/error) drops
        #: the column's support so it can never go stale.
        self.support: dict[int, dict] | None = None
        self.placement = placement

    def __repr__(self) -> str:
        cells = ", ".join(
            f"{result!r}/{'E' if err else ('T' if flag else 'F')}"
            for result, flag, err in zip(self.results, self.valid, self.error)
        )
        return f"GMRRow({self.args!r}: {cells})"


class GMRStore:
    """Row storage plus access paths for one GMR."""

    def __init__(
        self,
        name: str,
        arg_count: int,
        fct_count: int,
        page_store: PageStore | None = None,
        buffer: BufferManager | None = None,
        *,
        storage: str = "auto",
    ) -> None:
        """Rows cluster in a private segment ``gmr:<name>`` — "separate
        caching", the choice the paper justifies via Jhingran's CS-vs-CT
        analysis."""
        if storage not in ("auto", "mds", "columns"):
            raise ValueError(f"unknown storage mode {storage!r}")
        self.name = name
        self.arg_count = arg_count
        self.fct_count = fct_count
        self._segment = f"gmr:{name}"
        self._pages = page_store
        self._buffer = buffer
        #: The GMR-entry lock table (a
        #: :class:`~repro.concurrency.locks.StripedRWLock` keyed by
        #: ``args``), attached by the manager when the object base runs
        #: with ``workers > 0``.  ``None`` (the default) keeps every
        #: mutator lock-free — the single-threaded path.  Sec. 4.1:
        #: maintenance locks the GMR entry, never the argument objects.
        self.locks = None
        self._rows: dict[tuple, GMRRow] = {}
        self._invalid: list[set[tuple]] = [set() for _ in range(fct_count)]
        self._errors: list[set[tuple]] = [set() for _ in range(fct_count)]
        #: Per column, the scalar result stored last (None: none yet).
        self._samples: list[Any] = [None] * fct_count
        #: MDS mode: args of rows valid for some column but not a grid
        #: point (a column invalid, or a result not orderable).
        self._residual: set[tuple] = set()
        if storage == "auto":
            storage = (
                "mds" if arg_count + fct_count <= MDS_DIMENSION_LIMIT else "columns"
            )
        self.storage = storage
        self._mds: GridFile | None = None
        self._columns: list[BPlusTree | None] = [None] * fct_count
        if storage == "mds":
            self._mds = GridFile(
                arg_count + fct_count,
                page_store,
                buffer,
                segment=f"gmr:{name}:mds",
            )

    # -- plumbing --------------------------------------------------------------

    def _entry_write(self, args: tuple):
        """Write-side context of ``args``'s entry lock (no-op when the
        lock table is absent, i.e. single-threaded mode)."""
        locks = self.locks
        return _NULL_CTX if locks is None else locks.write(args)

    def _touch_row(self, row: GMRRow, *, write: bool = False) -> None:
        if self._buffer is not None:
            self._buffer.touch(row.placement.page_id, write=write)

    def _column(self, fct_index: int) -> BPlusTree:
        index = self._columns[fct_index]
        if index is None:
            index = BPlusTree(
                self._pages,
                self._buffer,
                segment=f"gmr:{self.name}:f{fct_index}",
            )
            for row in self._rows.values():
                if row.valid[fct_index] and _is_scalar(row.results[fct_index]):
                    index.insert(row.results[fct_index], row.args)
            self._columns[fct_index] = index
        return index

    def _mds_point(self, row: GMRRow) -> tuple | None:
        """The grid-file point of a fully valid, all-scalar row."""
        if not all(row.valid):
            return None
        if not all(_is_scalar(result) for result in row.results):
            return None
        return row.args + tuple(row.results)

    def _index_remove(self, row: GMRRow, fct_index: int, *, had_all: bool) -> None:
        old = row.results[fct_index]
        if self.storage == "columns":
            index = self._columns[fct_index]
            if index is not None and _is_scalar(old):
                index.remove(old, row.args)
        elif had_all and self._mds is not None:
            point = row.args + tuple(row.results)
            if all(_is_scalar(result) for result in row.results):
                self._mds.remove(point, row.args)

    def _index_insert(self, row: GMRRow, fct_index: int) -> None:
        new = row.results[fct_index]
        if self.storage == "columns":
            index = self._columns[fct_index]
            if index is not None and _is_scalar(new):
                index.insert(new, row.args)
        elif self._mds is not None:
            # The row is valid for ``fct_index`` now: a grid point, or
            # residual.
            point = self._mds_point(row)
            residual = self._residual
            if point is not None:
                self._mds.insert(point, row.args)
                # Emptiness first: hashing ``args`` costs a Python call
                # per Oid, and the set is empty unless rows are partial.
                if residual and row.args in residual:
                    residual.remove(row.args)
            else:
                residual.add(row.args)

    # -- row lifecycle --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, args: tuple) -> GMRRow | None:
        row = self._rows.get(args)
        if row is not None:
            self._touch_row(row)
        return row

    def ensure_row(self, args: tuple) -> GMRRow:
        with self._entry_write(args):
            return self._ensure_row_impl(args)

    def _ensure_row_impl(self, args: tuple) -> GMRRow:
        row = self._rows.get(args)
        if row is None:
            placement = (
                self._pages.place(
                    self._segment,
                    _ROW_BASE_SIZE + _FIELD_SIZE * (self.arg_count + self.fct_count),
                )
                if self._pages is not None
                else Placement(-1, 0)
            )
            row = GMRRow(args, self.fct_count, placement)
            self._rows[args] = row
            for fct_index in range(self.fct_count):
                self._invalid[fct_index].add(args)
        self._touch_row(row, write=True)
        return row

    def remove_row(self, args: tuple) -> bool:
        with self._entry_write(args):
            row = self._rows.pop(args, None)
            if row is None:
                return False
            self._touch_row(row, write=True)
            residual = self._residual
            if residual and args in residual:
                residual.remove(args)
            had_all = all(row.valid)
            for fct_index in range(self.fct_count):
                if row.valid[fct_index]:
                    self._index_remove(row, fct_index, had_all=had_all)
                    # In MDS mode the whole point disappears with the
                    # first removal; stop after it.
                    if self.storage == "mds" and had_all:
                        break
                self._invalid[fct_index].discard(args)
                self._errors[fct_index].discard(args)
            if self._pages is not None and row.placement.page_id >= 0:
                self._pages.remove(row.placement)
            return True

    # -- result maintenance ------------------------------------------------------------

    def set_result(self, args: tuple, fct_index: int, value: Any) -> GMRRow:
        """Store a freshly (re-)materialized result and mark it valid."""
        with self._entry_write(args):
            row = self._ensure_row_impl(args)
            had_all = all(row.valid)
            if row.valid[fct_index]:
                self._index_remove(row, fct_index, had_all=had_all)
            row.results[fct_index] = value
            row.valid[fct_index] = True
            # A class test, not _is_scalar: no call on the update hot path
            # (a subclass instance is simply not taken as the sample).
            if value.__class__ in _SCALAR_TYPES and value == value:
                self._samples[fct_index] = value
            if row.support:
                row.support.pop(fct_index, None)
            self._invalid[fct_index].discard(args)
            if row.error[fct_index]:
                row.error[fct_index] = False
                self._errors[fct_index].discard(args)
            self._index_insert(row, fct_index)
            self._touch_row(row, write=True)
            return row

    def mark_invalid(self, args: tuple, fct_index: int) -> bool:
        """Set ``V_fct := false`` (lazy rematerialization, Sec. 4.1)."""
        with self._entry_write(args):
            row = self._rows.get(args)
            if row is None or not row.valid[fct_index]:
                return False
            had_all = all(row.valid)
            self._index_remove(row, fct_index, had_all=had_all)
            row.valid[fct_index] = False
            if self._mds is not None:
                # No grid point now; residual while another column is valid.
                residual = self._residual
                if True in row.valid:
                    residual.add(args)
                elif residual and args in residual:
                    residual.remove(args)
            if row.support:
                row.support.pop(fct_index, None)
            self._invalid[fct_index].add(args)
            self._touch_row(row, write=True)
            return True

    def mark_error(self, args: tuple, fct_index: int) -> bool:
        """Demote the entry to the ERROR validity state.

        ERROR is invalid-plus-diagnosis: the validity bit drops (so the
        entry leaves every access path, exactly like
        :meth:`mark_invalid`) and the error flag records that the last
        rematerialization attempt *failed* rather than merely being
        deferred.  Returns True when anything changed.
        """
        with self._entry_write(args):
            row = self._rows.get(args)
            if row is None:
                return False
            changed = False
            if row.valid[fct_index]:
                had_all = all(row.valid)
                self._index_remove(row, fct_index, had_all=had_all)
                row.valid[fct_index] = False
                if self._mds is not None:
                    residual = self._residual
                    if True in row.valid:
                        residual.add(args)
                    elif residual and args in residual:
                        residual.remove(args)
                self._invalid[fct_index].add(args)
                changed = True
            if not row.error[fct_index]:
                row.error[fct_index] = True
                self._errors[fct_index].add(args)
                changed = True
            if row.support:
                row.support.pop(fct_index, None)
            self._touch_row(row, write=True)
            return changed

    def support_state(self, args: tuple, fct_index: int) -> dict | None:
        """The delta engine's support state for one entry column."""
        row = self._rows.get(args)
        if row is None or not row.support:
            return None
        return row.support.get(fct_index)

    def set_support_state(
        self, args: tuple, fct_index: int, state: dict | None
    ) -> None:
        """Attach (or with ``None`` drop) one column's support state.

        Only meaningful for a *valid* entry — the result transitions in
        :meth:`set_result` / :meth:`mark_invalid` / :meth:`mark_error`
        clear it, so callers set support immediately after storing the
        patched result.
        """
        with self._entry_write(args):
            row = self._rows.get(args)
            if row is None:
                return
            if state is None:
                if row.support:
                    row.support.pop(fct_index, None)
                return
            if row.support is None:
                row.support = {}
            row.support[fct_index] = state
            self._touch_row(row, write=True)

    # -- cell probes ----------------------------------------------------------------

    def probe(self, args: tuple, fct_index: int) -> tuple[Any, bool, bool]:
        """One function cell: ``(result, valid, exists)``.

        The forward-query hot path: callers need exactly one column of
        one entry, not a whole row.  Costs one row-page touch, like
        :meth:`get`.
        """
        row = self.get(args)
        if row is None:
            return None, False, False
        return row.results[fct_index], row.valid[fct_index], True

    def entry_cell(self, args: tuple, fct_index: int) -> tuple[Any, bool, bool, bool]:
        """Like :meth:`probe` but with the ERROR flag:
        ``(result, valid, error, exists)`` — the delta engine's view of
        a cell."""
        row = self.get(args)
        if row is None:
            return None, False, False, False
        return (
            row.results[fct_index],
            row.valid[fct_index],
            row.error[fct_index],
            True,
        )

    def lookup_many(
        self, args_list: Iterable[tuple], fct_index: int
    ) -> list[tuple[Any, bool, bool]]:
        """Vectorized :meth:`probe` — one ``(result, valid, exists)``
        triple per argument tuple, in input order."""
        return [self.probe(args, fct_index) for args in args_list]

    def mark_invalid_many(
        self, args_iter: Iterable[tuple], fct_index: int
    ) -> list[tuple]:
        """Batch :meth:`mark_invalid`; returns the args that transitioned.

        The invalidation wave marks every affected entry of one function
        in one call; each entry is still locked and marked on its own.
        Absent rows (blind references, Sec. 4.2) and already invalid
        cells are skipped.
        """
        return [args for args in args_iter if self.mark_invalid(args, fct_index)]

    def invalid_args(self, fct_index: int) -> set[tuple]:
        return set(self._invalid[fct_index])

    def has_invalid(self, fct_index: int) -> bool:
        return bool(self._invalid[fct_index])

    def error_args(self, fct_index: int) -> set[tuple]:
        return set(self._errors[fct_index])

    def has_errors(self, fct_index: int) -> bool:
        return bool(self._errors[fct_index])

    # -- retrieval -----------------------------------------------------------------

    def rows(self) -> Iterator[GMRRow]:
        for row in self._rows.values():
            self._touch_row(row)
            yield row

    def args(self) -> list[tuple]:
        return list(self._rows)

    def sample_result(self, fct_index: int) -> Any:
        """A scalar result this column has held (``None``: none so far).

        Read without a page touch or a lock — catalog knowledge for the
        planner, which declines a backward bound the indexed results
        cannot be ordered against *before* any revalidation is forced.
        """
        return self._samples[fct_index]

    def backward(
        self,
        fct_index: int,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, tuple]]:
        """Yield ``(result, args)`` for valid results within the range.

        Uses the MDS plus the tracked residual rows, or the per-column
        B+ tree.  Results that are not orderable scalars are in no range.
        """
        if self.storage == "mds" and self._mds is not None:
            conditions: list[Any] = [None] * (self.arg_count + self.fct_count)
            conditions[self.arg_count + fct_index] = (low, high)
            for point, args in self._mds.query(conditions):
                value = point[self.arg_count + fct_index]
                if not include_low and low is not None and value == low:
                    continue
                if not include_high and high is not None and value == high:
                    continue
                row = self._rows.get(args)
                if row is not None and row.valid[fct_index]:
                    yield value, args
            # Residual rows are not in the MDS; surface the valid results
            # for *this* function among them.
            for args in self._partial_rows(fct_index):
                row = self._rows[args]
                value = row.results[fct_index]
                if not _in_range(
                    value, low, high, include_low=include_low, include_high=include_high
                ):
                    continue
                self._touch_row(row)
                yield value, args
            return
        index = self._column(fct_index)
        yield from index.range_scan(
            low, high, include_low=include_low, include_high=include_high
        )

    def _partial_rows(self, fct_index: int) -> list[tuple]:
        """Args of residual rows valid for ``fct_index``, in row order
        (the order the residual scan touches their pages in)."""
        residual = self._residual
        if not residual:
            return []
        return [
            args
            for args, row in self._rows.items()
            if args in residual and row.valid[fct_index]
        ]


def _in_range(
    value: Any,
    low: Any,
    high: Any,
    *,
    include_low: bool,
    include_high: bool,
) -> bool:
    if not _is_scalar(value):
        return False
    if low is not None and (value < low or (not include_low and value == low)):
        return False
    if high is not None and (value > high or (not include_high and value == high)):
        return False
    return True


#: Public alias: scalar range membership (the manager's degraded
#: backward completion filters directly-evaluated results with it).
in_range = _in_range
