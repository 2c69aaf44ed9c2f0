"""SchemaDepFct bookkeeping (Def. 5.2).

Maps each elementary update operation ``t.set_A`` — represented as the
``(declaring type, attribute)`` pair, with the pseudo-attribute
``__elements__`` standing for set/list membership updates — to the set of
materialized functions whose ``RelAttr`` contains it.

Functions whose bodies could not be analyzed statically are kept in an
*always-relevant* set that every lookup includes, so no invalidation is
ever missed.
"""

from __future__ import annotations

from repro.core.function_registry import FunctionInfo


class DependencyIndex:
    """``SchemaDepFct`` over all functions in all GMRs."""

    def __init__(self) -> None:
        self._by_update: dict[tuple[str, str], set[str]] = {}
        self._always: set[str] = set()
        self._pairs_by_fid: dict[str, frozenset[tuple[str, str]]] = {}

    def add_function(self, info: FunctionInfo) -> None:
        self.add_pairs(info.fid, info.relevant_attrs)

    def add_pairs(
        self, fid: str, pairs: frozenset[tuple[str, str]] | None
    ) -> None:
        """Register ``RelAttr`` pairs for ``fid`` (None = unknown)."""
        if pairs is None:
            self._always.add(fid)
            self._pairs_by_fid[fid] = frozenset()
            return
        self._pairs_by_fid[fid] = pairs
        for pair in pairs:
            self._by_update.setdefault(pair, set()).add(fid)

    def remove_function(self, fid: str) -> None:
        self._always.discard(fid)
        pairs = self._pairs_by_fid.pop(fid, frozenset())
        for pair in pairs:
            bucket = self._by_update.get(pair)
            if bucket is not None:
                bucket.discard(fid)
                if not bucket:
                    del self._by_update[pair]

    def schema_dep_fct(self, decl_type: str, attr: str) -> frozenset[str]:
        """``SchemaDepFct(decl_type.set_attr)`` — Def. 5.2."""
        bucket = self._by_update.get((decl_type, attr))
        if bucket is None and not self._always:
            return frozenset()
        result = set(self._always)
        if bucket:
            result |= bucket
        return frozenset(result)

    def relevant_attrs(self, fid: str) -> frozenset[tuple[str, str]]:
        return self._pairs_by_fid.get(fid, frozenset())

    def is_always_relevant(self, fid: str) -> bool:
        return fid in self._always
