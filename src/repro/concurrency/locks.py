"""Reader-writer locks and the striped GMR-entry lock table.

Sec. 4.1's insight is that invalidation/rematerialization must not lock
the argument *objects* (that would serialize the object base behind
every maintenance transaction) but only the GMR entry being refreshed.
``StripedRWLock`` implements that: a fixed table of reader-writer locks
indexed by ``stable_hash(args) % stripes``.  Two different entries
almost always map to different stripes, so a forward query reading a
valid entry proceeds concurrently with a rematerialization of another
entry; collisions only cost spurious blocking, never correctness.

The stripe index deliberately uses the same ``stable_hash`` that routes
entries to shards and WAL schedulers — *not* the builtin ``hash``,
whose string hashing is randomized per process (PYTHONHASHSEED).  With
the builtin hash two runs of the same workload would spread the same
keys over different stripes, making contention profiles unreproducible
and stripe-assignment assertions impossible to pin in tests.

``RWLock`` is a classic condition-variable lock with writer preference
(an arriving writer blocks new readers), which keeps rematerializations
from being starved by a steady reader stream.  The locks are
deliberately *not* reentrant; the locking hierarchy in
``docs/CONCURRENCY.md`` guarantees no thread ever acquires an entry
lock while already holding one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.concurrency.sharding import cached_stable_hash


class RWLock:
    """A reader-writer lock with writer preference.

    Any number of readers may hold the lock concurrently; a writer
    holds it exclusively.  A waiting writer blocks *new* readers so a
    continuous reader stream cannot starve maintenance.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class StripedRWLock:
    """A fixed table of :class:`RWLock` stripes keyed by hashable keys.

    The GMR-entry lock layer: keys are argument tuples of GMR rows.
    ``read(key)`` / ``write(key)`` return context managers for the
    stripe owning ``key``.  The table is shared across all GMRs of a
    manager — a cross-GMR stripe collision is harmless (two unrelated
    entries briefly serialize) and keeps the table O(stripes) instead
    of O(rows).
    """

    def __init__(self, stripes: int = 64) -> None:
        if stripes < 1:
            raise ValueError("StripedRWLock needs at least one stripe")
        self._stripes = tuple(RWLock() for _ in range(stripes))
        self._hash = cached_stable_hash

    def _stripe(self, key: object) -> RWLock:
        return self._stripes[self._hash(key) % len(self._stripes)]

    def read(self, key: object):
        """Context manager holding the read side of ``key``'s stripe."""
        return self._stripes[self._hash(key) % len(self._stripes)].read()

    def write(self, key: object):
        """Context manager holding the write side of ``key``'s stripe."""
        return self._stripes[self._hash(key) % len(self._stripes)].write()

    def __len__(self) -> int:
        return len(self._stripes)
