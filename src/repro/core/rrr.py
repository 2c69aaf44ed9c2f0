"""The Reverse Reference Relation (Def. 4.1).

The RRR is a set of tuples ``[O: OID, F: FunctionId, A: ⟨OID⟩]``: object
``O`` has been accessed during the materialization of ``F`` with argument
list ``A``.  Because references in the object base are uni-directional,
the RRR is what lets the GMR manager find all materialized results an
updated object influences.

Physically the RRR is keyed by ``O`` (every algorithm in Sec. 4 starts
from "foreach triple [o, f, ⟨...⟩] in RRR"); each object's entry bucket
is placed on a simulated page so RRR lookups carry an I/O charge — the
lookup penalty the paper's Sec. 5.2 optimisation exists to avoid.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.gom.oid import Oid
from repro.storage.pages import BufferManager, PageStore, Placement

_ENTRY_SIZE = 48


class ReverseReferenceRelation:
    """Maps objects to the materializations that used them."""

    def __init__(
        self,
        page_store: PageStore | None = None,
        buffer: BufferManager | None = None,
    ) -> None:
        self._pages = page_store
        self._buffer = buffer
        # oid → fid → {args: None}.  The innermost dict is an
        # insertion-ordered set: the order popped argument lists come
        # back in is what the page-touch goldens were recorded with.
        self._entries: dict[Oid, dict[str, dict[tuple, None]]] = {}
        self._placements: dict[Oid, Placement] = {}
        self._size = 0
        #: Total probes (per-object bucket accesses).  Every maintenance
        #: or lookup call charges exactly one probe — this is the unit
        #: the paper's Sec. 5 cost model charges per elementary update,
        #: and the quantity the batching pipeline drives down.
        self.probes = 0

    def __len__(self) -> int:
        return self._size

    def _touch(self, oid: Oid, *, write: bool = False) -> None:
        self.probes += 1
        if self._pages is None or self._buffer is None:
            return
        placement = self._placements.get(oid)
        if placement is None:
            placement = self._pages.place("RRR", _ENTRY_SIZE)
            self._placements[oid] = placement
        self._buffer.touch(placement.page_id, write=write)

    # -- maintenance -----------------------------------------------------------

    def insert(self, oid: Oid, fid: str, args: tuple) -> bool:
        """Insert ``[oid, fid, args]`` (if not present).

        Returns True when this is the first entry of ``fid`` for ``oid``
        — the caller then adds ``fid`` to the object's ``ObjDepFct``.
        """
        self._touch(oid, write=True)
        by_fct = self._entries.setdefault(oid, {})
        bucket = by_fct.get(fid)
        if bucket is None:
            by_fct[fid] = {args: None}
            self._size += 1
            return True
        if args not in bucket:
            bucket[args] = None
            self._size += 1
        return False

    def remove(self, oid: Oid, fid: str, args: tuple) -> bool:
        """Remove one triple; returns True when ``fid`` has no entries left
        for ``oid`` (the caller then removes the ``ObjDepFct`` marking)."""
        self._touch(oid, write=True)
        by_fct = self._entries.get(oid)
        if by_fct is None:
            return False
        bucket = by_fct.get(fid)
        if bucket is None or args not in bucket:
            return False
        del bucket[args]
        self._size -= 1
        if not bucket:
            del by_fct[fid]
            if not by_fct:
                del self._entries[oid]
            return True
        return False

    def pop_args(self, oid: Oid, fid: str) -> set[tuple]:
        """Remove and return every argument list of ``fid`` for ``oid``."""
        self._touch(oid, write=True)
        by_fct = self._entries.get(oid)
        if by_fct is None:
            return set()
        bucket = by_fct.pop(fid, None)
        if bucket is None:
            return set()
        self._size -= len(bucket)
        if not by_fct:
            del self._entries[oid]
        return set(bucket)

    def pop_args_grouped(
        self, oid: Oid, fids: Iterable[str]
    ) -> dict[str, set[tuple]]:
        """Grouped :meth:`pop_args`: one bucket walk for a whole wave.

        Removes and returns the argument lists of every ``fid`` in one
        pass over the object's entry bucket — the invalidation wave's
        batch probe.  Cost accounting is identical to the per-fid loop
        it replaces: one probe (and one page touch) is charged per
        function, exactly like N calls to :meth:`pop_args`, so RRR probe
        counts stay comparable across code paths.
        """
        popped: dict[str, set[tuple]] = {}
        by_fct = self._entries.get(oid)
        for fid in fids:
            self._touch(oid, write=True)
            if by_fct is None:
                popped[fid] = set()
                continue
            bucket = by_fct.pop(fid, None)
            if bucket is None:
                popped[fid] = set()
                continue
            self._size -= len(bucket)
            popped[fid] = set(bucket)
        if by_fct is not None and not by_fct:
            del self._entries[oid]
        return popped

    def pop_object(self, oid: Oid) -> dict[str, set[tuple]]:
        """Remove and return all entries of ``oid`` (used by forget_object)."""
        self._touch(oid, write=True)
        by_fct = self._entries.pop(oid, None)
        if by_fct is None:
            return {}
        self._size -= sum(len(bucket) for bucket in by_fct.values())
        return {fid: set(bucket) for fid, bucket in by_fct.items()}

    # -- lookups -----------------------------------------------------------------

    def fids_of(self, oid: Oid) -> set[str]:
        self._touch(oid)
        by_fct = self._entries.get(oid)
        return set(by_fct) if by_fct else set()

    def args_of(self, oid: Oid, fid: str) -> set[tuple]:
        self._touch(oid)
        by_fct = self._entries.get(oid)
        if by_fct is None:
            return set()
        return set(by_fct.get(fid, {}))

    def has_entries(self, oid: Oid) -> bool:
        self._touch(oid)
        return oid in self._entries

    def triples(self) -> Iterator[tuple[Oid, str, tuple]]:
        """All ``[O, F, A]`` triples (for tests and figure reproduction)."""
        for oid, by_fct in self._entries.items():
            for fid, buckets in by_fct.items():
                for args in buckets:
                    yield oid, fid, args
