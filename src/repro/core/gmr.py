"""Generalized Materialization Relations (Defs. 3.1–3.4).

A GMR ``⟨⟨f1, ..., fm⟩⟩`` for functions sharing argument types
``t1, ..., tn`` is a relation

    ``[O1: t1, ..., On: tn, f1: tn+1, V1: bool, ..., fm: tn+m, Vm: bool]``

storing argument combinations, results and validity flags.  This class is
the *logical* GMR: schema, restriction, strategy and the extension-level
notions of the paper —

* **consistent** (Def. 3.2): every entry flagged valid holds the true
  function result (enforced by the manager's maintenance algorithms;
  checkable via :meth:`check_consistency`);
* **fj-valid** (Def. 3.3): every stored result of ``fj`` is valid;
* **complete** (Def. 3.4): one entry per argument combination from the
  extension cross-product (restricted GMRs: per combination satisfying
  the restriction predicate, Def. 6.1).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.core.function_registry import FunctionInfo
from repro.core.restricted import RestrictionSpec
from repro.core.strategies import Strategy
from repro.errors import GMRDefinitionError
from repro.storage.gmr_store import GMRRow, GMRStore
from repro.util.tables import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.gom.database import ObjectBase


class GMR:
    """One generalized materialization relation."""

    def __init__(
        self,
        functions: list[FunctionInfo],
        *,
        page_store=None,
        buffer=None,
        complete: bool = True,
        strategy: Strategy = Strategy.IMMEDIATE,
        restriction: RestrictionSpec | None = None,
        storage: str = "auto",
        name: str | None = None,
        capacity: int | None = None,
    ) -> None:
        if not functions:
            raise GMRDefinitionError("a GMR needs at least one function")
        arg_types = functions[0].arg_types
        for info in functions[1:]:
            if info.arg_types != arg_types:
                raise GMRDefinitionError(
                    f"functions in one GMR must share argument types: "
                    f"{functions[0].fid} has {arg_types}, "
                    f"{info.fid} has {info.arg_types}"
                )
        if capacity is not None:
            if complete:
                raise GMRDefinitionError(
                    "a complete GMR must hold every argument combination; "
                    "capacity limits apply to incrementally set up GMRs only"
                )
            if capacity < 1:
                raise GMRDefinitionError("GMR capacity must be positive")
        self.functions = list(functions)
        self.arg_types = arg_types
        self.complete = complete
        self.strategy = strategy
        self.restriction = restriction
        #: Entry limit for cache-style GMRs (Sec. 3.2: "specialized
        #: replacement strategies ... can be applied"); LRU replacement.
        self.capacity = capacity
        self._recency: OrderedDict[tuple, None] = OrderedDict()
        self.evictions = 0
        self.name = name or "<<" + ", ".join(
            info.short_name for info in functions
        ) + ">>"
        self._column_of = {info.fid: index for index, info in enumerate(functions)}
        self.store = GMRStore(
            self.name,
            arg_count=len(arg_types),
            fct_count=len(functions),
            page_store=page_store,
            buffer=buffer,
            storage=storage,
        )
        #: Pseudo-function id under which the restriction predicate's
        #: dependencies are tracked in the RRR (Sec. 6.1).
        self.predicate_fid = f"__pred__:{self.name}"
        #: Back-reference set by :meth:`GMRManager.materialize` — lets
        #: ``gmr.explain()`` reach the manager's observability state.
        self._manager = None

    def explain(self):
        """This GMR's EXPLAIN section (see :meth:`GMRManager.explain`)."""
        if self._manager is None:
            raise GMRDefinitionError(
                f"{self.name} is not attached to a GMR manager"
            )
        return self._manager.explain(self)

    # -- structure ----------------------------------------------------------------

    @property
    def fids(self) -> list[str]:
        return [info.fid for info in self.functions]

    @property
    def arity(self) -> int:
        """Def. 3.1: ``n + 2·m``."""
        return len(self.arg_types) + 2 * len(self.functions)

    def column_of(self, fid: str) -> int:
        try:
            return self._column_of[fid]
        except KeyError:
            raise GMRDefinitionError(f"{self.name} does not contain {fid}") from None

    def function(self, fid: str) -> FunctionInfo:
        return self.functions[self.column_of(fid)]

    @property
    def is_restricted(self) -> bool:
        return self.restriction is not None and (
            self.restriction.predicate is not None or bool(self.restriction.atomic)
        )

    # -- extension access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def lookup(self, args: tuple) -> GMRRow | None:
        row = self.store.get(args)
        if row is not None and self.capacity is not None:
            self._touch_recency(args)
        return row

    def rows(self) -> Iterator[GMRRow]:
        return self.store.rows()

    def args(self) -> list[tuple]:
        return self.store.args()

    def ensure_row(self, args: tuple) -> GMRRow:
        is_new = self.store.get(args) is None
        row = self.store.ensure_row(args)
        if self.capacity is not None:
            self._touch_recency(args)
            if is_new:
                self._evict_over_capacity()
        return row

    def remove_row(self, args: tuple) -> bool:
        self._recency.pop(args, None)
        return self.store.remove_row(args)

    def _touch_recency(self, args: tuple) -> None:
        recency = self._recency
        if args in recency:
            recency.move_to_end(args)
        else:
            recency[args] = None

    def _evict_over_capacity(self) -> None:
        """LRU replacement for cache-style GMRs.

        Evicted rows leave their RRR entries behind as leftovers — they
        are cleaned lazily exactly like the blind references of Sec. 4.2.
        """
        assert self.capacity is not None
        while len(self.store) > self.capacity and self._recency:
            victim, _ = self._recency.popitem(last=False)
            self.store.remove_row(victim)
            self.evictions += 1

    def set_result(self, args: tuple, fid: str, value: Any) -> GMRRow:
        if self.capacity is not None:
            self.ensure_row(args)  # keeps LRU recency and capacity honest
        return self.store.set_result(args, self.column_of(fid), value)

    def mark_invalid(self, args: tuple, fid: str) -> bool:
        return self.store.mark_invalid(args, self.column_of(fid))

    def mark_error(self, args: tuple, fid: str) -> bool:
        """Demote one entry to the ERROR validity state (guard failure)."""
        return self.store.mark_error(args, self.column_of(fid))

    def support_state(self, args: tuple, fid: str) -> dict | None:
        """The delta engine's support state for one entry (or ``None``)."""
        return self.store.support_state(args, self.column_of(fid))

    def set_support_state(self, args: tuple, fid: str, state: dict | None) -> None:
        self.store.set_support_state(args, self.column_of(fid), state)

    def probe(self, args: tuple, fid: str) -> tuple[Any, bool, bool]:
        """One cell of one entry: ``(value, valid, exists)``.

        The forward-query fast path — equivalent to :meth:`lookup` plus
        column reads.  Keeps LRU recency exactly like :meth:`lookup`.
        """
        cell = self.store.probe(args, self.column_of(fid))
        if cell[2] and self.capacity is not None:
            self._touch_recency(args)
        return cell

    def entry_cell(self, args: tuple, fid: str) -> tuple[Any, bool, bool, bool]:
        """``(value, valid, error, exists)`` — :meth:`probe` plus the
        ERROR flag, for the delta engine's cell reads."""
        cell = self.store.entry_cell(args, self.column_of(fid))
        if cell[3] and self.capacity is not None:
            self._touch_recency(args)
        return cell

    def lookup_many(
        self, args_list: list[tuple], fid: str
    ) -> list[tuple[Any, bool, bool]]:
        """Vectorized :meth:`probe` over a batch of argument tuples."""
        cells = self.store.lookup_many(args_list, self.column_of(fid))
        if self.capacity is not None:
            for args, cell in zip(args_list, cells):
                if cell[2]:
                    self._touch_recency(args)
        return cells

    def mark_invalid_many(self, args_iter, fid: str) -> list[tuple]:
        """Batch :meth:`mark_invalid`; returns the args that transitioned."""
        return self.store.mark_invalid_many(args_iter, self.column_of(fid))

    def result(self, args: tuple, fid: str) -> tuple[Any, bool]:
        """``(value, valid)`` for one entry; raises if the row is absent."""
        value, valid, _error, exists = self.store.entry_cell(
            args, self.column_of(fid)
        )
        if not exists:
            raise GMRDefinitionError(f"{self.name} has no entry for {args!r}")
        return value, valid

    def entry_state(self, args: tuple, fid: str) -> str:
        """``"valid"`` / ``"invalid"`` / ``"error"`` / ``"missing"``."""
        _value, valid, error, exists = self.store.entry_cell(
            args, self.column_of(fid)
        )
        if not exists:
            return "missing"
        if valid:
            return "valid"
        return "error" if error else "invalid"

    def invalid_args(self, fid: str) -> set[tuple]:
        return self.store.invalid_args(self.column_of(fid))

    def error_args(self, fid: str) -> set[tuple]:
        """Argument combinations currently in the ERROR state for ``fid``."""
        return self.store.error_args(self.column_of(fid))

    def has_errors(self, fid: str) -> bool:
        return self.store.has_errors(self.column_of(fid))

    def sample_result(self, fid: str) -> Any:
        """A scalar result ``fid`` has held (see the store's method)."""
        return self.store.sample_result(self.column_of(fid))

    def backward(
        self,
        fid: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, tuple]]:
        return self.store.backward(
            self.column_of(fid),
            low,
            high,
            include_low=include_low,
            include_high=include_high,
        )

    # -- QBE-style tabular retrieval (Sec. 3.2) -----------------------------------------

    def retrieve(self, spec: dict[str, Any]) -> list[dict[str, Any]]:
        """The paper's tabular retrieval operations.

        ``spec`` maps column names — ``"O1".."On"`` for arguments, the
        functions' short names for results — to one of:

        * ``"?"`` — return this column,
        * a ``(low, high)`` tuple — inclusive range filter (either end
          may be ``None``),
        * any other value — exact-match filter,
        * column absent — don't care (the paper's ``–``).

        A forward query is ``{"O1": id, "f1": "?"}``; a backward range
        query is ``{"O1": "?", "f1": (lb, ub)}``.  Only *valid* results
        participate; invalid entries are filtered out (callers wanting
        completeness run :meth:`GMRManager.revalidate` first, as the
        backward-query path does).
        """
        arg_names = [f"O{i + 1}" for i in range(len(self.arg_types))]
        fct_names = [info.short_name for info in self.functions]
        known = set(arg_names) | set(fct_names)
        unknown = set(spec) - known
        if unknown:
            raise GMRDefinitionError(
                f"{self.name} has no column(s) {sorted(unknown)}; "
                f"columns are {arg_names + fct_names}"
            )

        wanted = [name for name in arg_names + fct_names if spec.get(name) == "?"]
        results: list[dict[str, Any]] = []
        for row in self.store.rows():
            if not self._qbe_matches(row, spec, arg_names, fct_names):
                continue
            record: dict[str, Any] = {}
            for name in wanted:
                if name in arg_names:
                    record[name] = row.args[arg_names.index(name)]
                else:
                    record[name] = row.results[fct_names.index(name)]
            results.append(record)
        return results

    def _qbe_matches(self, row, spec, arg_names, fct_names) -> bool:
        for index, name in enumerate(arg_names):
            condition = spec.get(name)
            if condition is None or condition == "?":
                continue
            if not _qbe_condition(row.args[index], condition):
                return False
        for index, name in enumerate(fct_names):
            condition = spec.get(name)
            if condition is None:
                continue
            if not row.valid[index]:
                return False  # invalid results never participate
            if condition == "?":
                continue
            if not _qbe_condition(row.results[index], condition):
                return False
        return True

    # -- extension-level properties (Defs. 3.2-3.4) ------------------------------------

    def is_valid(self, fid: str) -> bool:
        """Def. 3.3: the extension is ``fj``-valid."""
        return not self.store.has_invalid(self.column_of(fid))

    def is_fully_valid(self) -> bool:
        return all(self.is_valid(fid) for fid in self.fids)

    def check_consistency(self, db: "ObjectBase") -> list[str]:
        """Def. 3.2: recompute every valid entry; return violations.

        This is a test/debug helper — it evaluates the real functions, so
        it is as expensive as a full rematerialization.
        """
        violations: list[str] = []
        for row in self.store.rows():
            for column, info in enumerate(self.functions):
                if not row.valid[column]:
                    continue
                actual = db.call_function(info, row.args)
                stored = row.results[column]
                if not _values_equal(stored, actual):
                    violations.append(
                        f"{self.name}{row.args!r}.{info.short_name}: "
                        f"stored {stored!r} != actual {actual!r}"
                    )
        return violations

    def expected_extension(self, db: "ObjectBase") -> set[tuple]:
        """The argument combinations a complete extension must hold
        (Def. 3.4, restricted per Def. 6.1)."""
        from itertools import product

        from repro.gom.types import is_atomic_type

        domains: list[list[Any]] = []
        for position, type_name in enumerate(self.arg_types):
            if is_atomic_type(type_name):
                assert self.restriction is not None
                domains.append(self.restriction.atomic_values(position))
            else:
                domains.append(list(db.objects.extension(type_name)))
        combos = set(product(*domains))
        if self.restriction is not None:
            combos = {
                args for args in combos if self.restriction.allows(db, args)
            }
        return combos

    def is_complete(self, db: "ObjectBase") -> bool:
        """Def. 3.4 / Def. 6.1 completeness of the current extension."""
        return set(self.store.args()) == self.expected_extension(db)

    # -- display ----------------------------------------------------------------------

    def extension_table(self) -> str:
        """Render the extension like the paper's GMR figures."""
        headers = [f"O{i + 1}: {t}" for i, t in enumerate(self.arg_types)]
        for info in self.functions:
            headers.append(f"{info.short_name}: {info.result_type}")
            headers.append("V")
        rows = []
        for row in sorted(self.store.rows(), key=lambda r: repr(r.args)):
            cells: list[object] = list(row.args)
            for column in range(len(self.functions)):
                cells.append(row.results[column])
                if row.error[column]:
                    cells.append("E")
                else:
                    cells.append(row.valid[column])
            rows.append(cells)
        return format_table(headers, rows, title=self.name)


def _qbe_condition(value: Any, condition: Any) -> bool:
    if isinstance(condition, tuple) and len(condition) == 2:
        low, high = condition
        if low is not None and value < low:
            return False
        if high is not None and value > high:
            return False
        return True
    return value == condition


def _values_equal(first: Any, second: Any) -> bool:
    if isinstance(first, float) and isinstance(second, float):
        return math.isclose(first, second, rel_tol=1e-9, abs_tol=1e-12)
    return first == second
