"""The object manager: OID → object mapping and type extensions.

Maintains the extension ``ext(t)`` of every type — the set of instances
of ``t`` — which the ``materialize`` statement binds range variables to
(Def. 3.4 defines completeness of a GMR against the cross product of the
argument-type extensions).  Because subtype instances are substitutable,
``extension`` unions subtype extents by default.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import DeletedObjectError, NoSuchObjectError
from repro.gom.objects import StoredObject
from repro.gom.oid import Oid, OidGenerator
from repro.gom.schema import Schema
from repro.gom.types import TypeKind
from repro.storage.pages import PageStore


class ObjectManager:
    """Creates, stores, retrieves and deletes objects."""

    def __init__(self, schema: Schema, page_store: PageStore) -> None:
        self._schema = schema
        self._pages = page_store
        self._oids = OidGenerator()
        #: Live objects by ``oid.value``.  Keyed by the int so a lookup
        #: hashes in C rather than through the dataclass-generated
        #: ``Oid.__hash__``; ``delete`` removes the entry.
        #: :class:`~repro.gom.database.ObjectBase` reads it directly on
        #: the member-access path; only this class writes it.
        self.live: dict[int, StoredObject] = {}
        #: Per dynamic type, its instances in creation order (a dict used
        #: as an ordered set, so ``delete`` is O(1)).
        self._extents: dict[str, dict[Oid, None]] = {}

    def __len__(self) -> int:
        return len(self.live)

    def peek_next_oid(self) -> Oid:
        """The OID the next ``create`` will receive (without consuming it).

        Write-ahead logging needs it: the ``create`` record is written
        *before* the object exists, yet must name the OID deterministically.
        """
        return Oid(self._oids._next)

    def advance_oid_floor(self, next_oid: int) -> None:
        """Raise the allocator so no future OID falls below ``next_oid``.

        Persistence load uses it: a dumped base may have burned OIDs on
        since-deleted objects, and a reload must not re-issue them — a
        replayed log (or a parallel live process) names those OIDs.
        """
        if next_oid > self._oids._next:
            self._oids._next = next_oid

    # -- lifecycle -------------------------------------------------------------

    def create(
        self,
        type_name: str,
        *,
        data: dict[str, Any] | None = None,
        elements: list[Any] | None = None,
    ) -> StoredObject:
        definition = self._schema.type(type_name)
        if definition.kind is TypeKind.ATOMIC:
            raise NoSuchObjectError(f"cannot instantiate atomic type {type_name}")
        oid = self._oids.next()
        obj = StoredObject(oid, type_name, data=data, elements=elements)
        obj.placement = self._pages.place(type_name, obj.size_estimate())
        self.live[oid.value] = obj
        self._extents.setdefault(type_name, {})[oid] = None
        return obj

    def restore(
        self,
        oid: Oid,
        type_name: str,
        *,
        data: dict[str, Any] | None = None,
        elements: list[Any] | None = None,
    ) -> StoredObject:
        """Re-create an object under its original OID (persistence load).

        The OID generator is advanced past the restored value so future
        creations can never collide.
        """
        if self.exists(oid):
            raise NoSuchObjectError(f"{oid!r} is already live")
        obj = StoredObject(oid, type_name, data=data, elements=elements)
        obj.placement = self._pages.place(type_name, obj.size_estimate())
        self.live[oid.value] = obj
        self._extents.setdefault(type_name, {})[oid] = None
        if oid.value >= self._oids._next:
            self._oids._next = oid.value + 1
        return obj

    def get(self, oid: Oid) -> StoredObject:
        obj = self.live.get(oid.value)
        if obj is None:
            raise NoSuchObjectError(f"{oid!r} does not denote a live object")
        if obj.deleted:
            raise DeletedObjectError(f"{oid!r} has been deleted")
        return obj

    def exists(self, oid: Oid) -> bool:
        obj = self.live.get(oid.value)
        return obj is not None and not obj.deleted

    def exists_all(self, oids: "Iterable[Oid]") -> bool:
        """Whether every oid denotes a live object (one liveness sweep
        for a whole argument tuple — the batched pipeline's blind-row
        check)."""
        return all(self.exists(oid) for oid in oids)

    def type_of(self, oid: Oid) -> str:
        return self.get(oid).type_name

    def delete(self, oid: Oid) -> StoredObject:
        obj = self.get(oid)
        obj.deleted = True
        self._extents[obj.type_name].pop(oid, None)
        if obj.placement is not None:
            self._pages.remove(obj.placement)
        del self.live[oid.value]
        return obj

    # -- extensions -------------------------------------------------------------

    def own_extent(self, type_name: str) -> list[Oid]:
        """Instances whose dynamic type is exactly ``type_name``."""
        return list(self._extents.get(type_name, ()))

    def extension(self, type_name: str) -> list[Oid]:
        """``ext(t)``: all instances of ``t`` including subtype instances."""
        result = list(self._extents.get(type_name, ()))
        for subtype in self._schema.subtypes_transitive(type_name):
            result.extend(self._extents.get(subtype, ()))
        return result

    def extension_size(self, type_name: str) -> int:
        total = len(self._extents.get(type_name, ()))
        for subtype in self._schema.subtypes_transitive(type_name):
            total += len(self._extents.get(subtype, ()))
        return total

    def iter_objects(self) -> Iterator[StoredObject]:
        return iter(self.live.values())

    def oids(self) -> Iterable[Oid]:
        return [obj.oid for obj in self.live.values()]
