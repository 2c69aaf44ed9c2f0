"""Transactions: atomic groups of updates with consistent rollback.

GOM applications group updates; an aborted group must leave the object
base — *including every derived structure* (GMR extensions, RRR,
ObjDepFct markings, attribute indexes) — as if it never ran.  The
implementation records an undo log of inverse elementary updates and
replays it in reverse through the ordinary instrumented update paths, so
the schema-rewrite notification machinery maintains the materializations
during rollback exactly as it does during forward execution.  No special
cases inside the GMR manager are needed — a direct payoff of the paper's
design decision to funnel every state change through the rewritten
elementary operations.

Limitations (documented, enforced):

* ``delete`` is not allowed inside a transaction — an OID cannot be
  resurrected, so deletion is not undoable;
* objects *created* inside an aborted transaction are deleted again on
  rollback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.gom.oid import Oid

if TYPE_CHECKING:  # pragma: no cover
    from repro.gom.database import ObjectBase


class TransactionError(ReproError):
    """Illegal operation inside (or on) a transaction."""


class Transaction:
    """One (possibly nested) transaction scope."""

    def __init__(self, db: "ObjectBase") -> None:
        self._db = db
        self._undo: list[tuple] = []
        self.active = False
        self.rolled_back = False

    # -- logging (called from TransactionManager.on_update) ------------------------

    def record(self, kind: str, oid: Oid, attr: str | None, old: Any, new: Any) -> None:
        if kind == "set":
            self._undo.append(("set", oid, attr, old))
        elif kind == "insert":
            self._undo.append(("uninsert", oid, new))
        elif kind == "remove":
            self._undo.append(("reinsert", oid, old, new))
        elif kind == "create":
            self._undo.append(("uncreate", oid))

    # -- control -----------------------------------------------------------------------

    def rollback(self) -> None:
        db = self._db
        for entry in reversed(self._undo):
            action = entry[0]
            if action == "set":
                _, oid, attr, old = entry
                db.set_attr(oid, attr, old)
            elif action == "uninsert":
                _, oid, element = entry
                db.collection_remove(oid, element)
            elif action == "reinsert":
                _, oid, element, position = entry
                db.collection_insert(oid, element, position=position)
            elif action == "uncreate":
                (_, oid) = entry
                if db.objects.exists(oid):
                    db.delete(oid)
        self._undo.clear()
        self.rolled_back = True

    def commit_into(self, parent: "Transaction | None") -> None:
        """On nested commit, the undo log folds into the enclosing scope."""
        if parent is not None:
            parent._undo.extend(self._undo)
        self._undo.clear()

    @property
    def size(self) -> int:
        return len(self._undo)


class TransactionManager:
    """Stack of transaction scopes attached to one object base."""

    def __init__(self, db: "ObjectBase") -> None:
        self._db = db
        self._stack: list[Transaction] = []
        #: Suppresses undo-recording while inverse updates are replayed.
        #: A plain (unlocked) flag: rollback runs under the object base's
        #: update lock, and :meth:`on_update` is called from update
        #: paths holding the same lock — so the flag is only ever read by
        #: the thread that set it.  Single-threaded mode trivially
        #: satisfies the same invariant.
        self._rolling_back = False

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def in_transaction(self) -> bool:
        return bool(self._stack)

    def on_update(self, kind, oid, attr, old, new) -> None:
        """Called by the object base after every elementary update."""
        if self._rolling_back or not self._stack:
            return
        if kind == "delete":
            # Should have been rejected up front; defensive double-check.
            raise TransactionError("delete inside a transaction")
        self._stack[-1].record(kind, oid, attr, old, new)

    def check_delete_allowed(self, oid: Oid) -> None:
        if self._stack and not self._rolling_back:
            raise TransactionError(
                f"cannot delete {oid!r} inside a transaction: object "
                f"deletion is not undoable (OIDs are never reused)"
            )

    def begin(self) -> Transaction:
        transaction = Transaction(self._db)
        transaction.active = True
        self._stack.append(transaction)
        self._db._wal_log({"kind": "txn_begin"})
        return transaction

    def commit(self, transaction: Transaction) -> None:
        self._expect_top(transaction)
        self._stack.pop()
        transaction.commit_into(self._stack[-1] if self._stack else None)
        transaction.active = False
        self._db._wal_log({"kind": "txn_commit"})

    def rollback(self, transaction: Transaction) -> None:
        self._expect_top(transaction)
        self._stack.pop()
        self._rolling_back = True
        try:
            transaction.rollback()
        finally:
            self._rolling_back = False
        transaction.active = False
        # The abort marker follows the logged inverse updates: a crash
        # mid-rollback leaves the scope unterminated on disk and recovery
        # discards the whole suffix — which is exactly the abort's intent.
        self._db._wal_log({"kind": "txn_abort"})

    def _expect_top(self, transaction: Transaction) -> None:
        if not self._stack or self._stack[-1] is not transaction:
            raise TransactionError(
                "transactions must be completed innermost-first"
            )


class TransactionScope:
    """``with db.transaction() as txn:`` — commit on success, roll back
    on exception (or explicit ``txn.abort()``)."""

    def __init__(self, manager: TransactionManager) -> None:
        self._manager = manager
        self._transaction: Transaction | None = None
        self._abort_requested = False

    def __enter__(self) -> "TransactionScope":
        self._transaction = self._manager.begin()
        return self

    def abort(self) -> None:
        """Request a rollback at scope exit."""
        self._abort_requested = True

    @property
    def update_count(self) -> int:
        if self._transaction is None:
            raise TransactionError("transaction scope has not been entered")
        return self._transaction.size

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._transaction is None:
            raise TransactionError("transaction scope has not been entered")
        if exc_type is not None or self._abort_requested:
            self._manager.rollback(self._transaction)
            return False  # propagate any exception
        self._manager.commit(self._transaction)
        return False
