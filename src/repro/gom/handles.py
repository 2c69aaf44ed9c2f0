"""Object handles: implicit referencing/dereferencing.

In GOM "objects are referenced via their object identifier; referencing
and dereferencing is implicit".  A :class:`Handle` is a lightweight proxy
pairing an :class:`~repro.gom.oid.Oid` with its object base; attribute
reads, the built-in ``set_A`` writers, set/list element operations and
declared operations are all reached with plain Python syntax, so function
bodies read exactly like the paper's GOM code::

    def volume(self):
        return self.length() * self.width() * self.height()

Handles compare and hash by OID.  A handle may be *internal* (obtained as
``self`` inside an operation body), which exempts it from the public
clause so operations can reach their own representation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import ObjectError
from repro.gom.oid import Oid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gom.database import ObjectBase


class Handle:
    """Proxy for one object in an :class:`ObjectBase`."""

    __slots__ = ("_db", "_oid", "_internal")

    def __init__(self, db: "ObjectBase", oid: Oid, *, internal: bool = False) -> None:
        bind_db(self, db)
        bind_oid(self, oid)
        bind_internal(self, internal)

    # -- identity ---------------------------------------------------------------

    @property
    def oid(self) -> Oid:
        return self._oid

    @property
    def type_name(self) -> str:
        return self._db.type_of(self._oid)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Handle):
            return self._oid == other._oid
        if isinstance(other, Oid):
            return self._oid == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._oid)

    def __repr__(self) -> str:
        try:
            return f"<{self.type_name} {self._oid!r}>"
        except ObjectError:
            return f"<deleted {self._oid!r}>"

    # -- member access -----------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called for names not found on the class: attribute reads,
        # set_A writers and operation invocations.
        return self._db.handle_member(self, name)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"direct assignment to {name} is not allowed; "
            f"use the set_{name}(...) accessor"
        )

    # -- collection protocol --------------------------------------------------------

    def insert(self, element: Any) -> None:
        """Insert into a set/list-structured object (elementary update)."""
        self._db.collection_insert(self, element)

    def remove(self, element: Any) -> None:
        """Remove from a set/list-structured object (elementary update)."""
        self._db.collection_remove(self, element)

    def contains(self, element: Any) -> bool:
        return self._db.collection_contains(self, element)

    def __contains__(self, element: Any) -> bool:
        return self._db.collection_contains(self, element)

    def __iter__(self) -> Iterator[Any]:
        return self._db.collection_iter(self)

    def __len__(self) -> int:
        return self._db.collection_len(self)

    def elements(self) -> list[Any]:
        """Snapshot of a collection's elements (handles for references)."""
        return list(self._db.collection_iter(self))


# ``Handle.__setattr__`` refuses every assignment, so the three slots are
# filled through their descriptors' C-level ``__set__``.  The hot paths of
# ``repro.gom`` build a handle inline — ``new_handle(Handle)`` plus the
# three binders, no Python frame; ``Handle(db, oid, internal=...)`` is the
# same thing behind one.
new_handle = Handle.__new__
bind_db = Handle._db.__set__
bind_oid = Handle._oid.__set__
bind_internal = Handle._internal.__set__


def unwrap(value: Any) -> Any:
    """Convert a Handle to its OID; pass every other value through."""
    if isinstance(value, Handle):
        return value._oid
    return value
