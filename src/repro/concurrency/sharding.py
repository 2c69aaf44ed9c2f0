"""Stable argument-tuple hashing and the shard router.

The sharded materialization engine partitions its maintenance state by
``shard_of(args) % shards`` — each GMR entry's argument tuple picks the
shard that owns its scheduler queue, update lock and WAL segment.  Two
properties matter:

* **Stability across processes.**  The builtin ``hash()`` is
  per-process randomized for strings (PYTHONHASHSEED), so a WAL segment
  written before a crash must not be routed with it — recovery in a new
  process would look for records in the wrong segment.  ``stable_hash``
  therefore CRC32s a canonical byte encoding of the value, which is
  identical in every process and on every platform.

* **Rebalance-free routing.**  The shard of an argument tuple is a pure
  function of the tuple and the shard count — there is no routing
  table, hence nothing to rebalance or to keep consistent.  Changing
  ``shards`` between runs is a schema-level decision (checkpoint first;
  WAL segments are merged by global sequence number on recovery, so a
  recovered base can be reopened at a different shard count).

The canonical encoding tags every value with its type so ``1``,
``1.0``, ``True`` and ``"1"`` hash differently, and OIDs hash by their
integer identity (not their Python object identity).
"""

from __future__ import annotations

import threading
import zlib

from repro.gom.oid import Oid


class ShardCommitConflict(Exception):
    """A drain's rematerialization lost the write-epoch race.

    Raised (engine-internal, never user-visible) by the manager's
    rematerialization path when the object base's write epoch moved
    between the start of a background computation and its commit point:
    the result may have been computed from a half-applied update, so it
    is discarded and the entry is re-deferred onto its shard's
    scheduler.  The drain loop treats this exactly like a skipped entry.
    """


def _canonical(value: object) -> str:
    """A type-tagged, process-stable string form of ``value``."""
    if isinstance(value, Oid):
        return f"O{value.value}"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"b{int(value)}"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{value}"
    if value is None:
        return "n"
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    return f"r{type(value).__name__}:{value!r}"


def stable_hash(value: object) -> int:
    """A process-stable 32-bit hash of an argument tuple or scalar."""
    return zlib.crc32(_canonical(value).encode("utf-8"))


#: Wholesale-clear threshold of the argument-tuple hash memo, so bases
#: with churning extensions cannot grow it without bound.
_TUPLE_MEMO_LIMIT = 65536
_tuple_hashes: dict[tuple, int] = {}
_tuple_hashes_lock = threading.Lock()


def cached_stable_hash(value: object) -> int:
    """:func:`stable_hash`, memoized for argument tuples.

    The shard router and the striped GMR-entry locks hash the same
    argument tuples on every schedule and every lock acquisition; the
    memo skips the CRC on a repeat and never changes its value.
    """
    if not isinstance(value, tuple):
        return stable_hash(value)
    cached = _tuple_hashes.get(value)
    if cached is None:
        cached = stable_hash(value)
        with _tuple_hashes_lock:
            if len(_tuple_hashes) >= _TUPLE_MEMO_LIMIT:
                _tuple_hashes.clear()
            _tuple_hashes[value] = cached
    return cached


def shard_of(args: object, shards: int) -> int:
    """The shard index owning ``args`` (always 0 when unsharded)."""
    if shards <= 1:
        return 0
    return cached_stable_hash(args) % shards
