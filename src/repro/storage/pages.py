"""Simulated slotted pages, page store and LRU buffer manager.

The paper's measurements were taken on GOM running over the EXODUS
storage manager with a deliberately small (600 kB) database buffer.  We
reproduce the *relative* cost structure with a simulated page store:

* every stored entity (object, GMR row, index node) is *placed* on a page
  when created; placement is append-style with a per-page byte budget;
* every read or write of an entity *touches* its page through a
  :class:`BufferManager` which keeps an LRU set of resident pages and
  counts hits and misses;
* a :class:`CostModel` converts the counters into a single simulated-cost
  figure (misses are the dominant term, mirroring disk I/O).

Nothing is actually serialized — the simulation only needs sizes and
identities to reproduce buffer behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import PageFullError

DEFAULT_PAGE_SIZE = 4096
#: Buffer capacity used in the paper's benchmarks: 600 kB of 4 kB pages.
PAPER_BUFFER_PAGES = (600 * 1024) // DEFAULT_PAGE_SIZE


@dataclass
class Page:
    """A fixed-capacity page holding opaque records by slot id."""

    page_id: int
    capacity: int
    used: int = 0
    slots: dict[int, int] = field(default_factory=dict)  # slot -> size
    _next_slot: int = 0

    def fits(self, size: int) -> bool:
        return self.used + size <= self.capacity

    def allocate(self, size: int) -> int:
        if not self.fits(size):
            raise PageFullError(
                f"page {self.page_id}: {size} bytes do not fit "
                f"({self.used}/{self.capacity} used)"
            )
        slot = self._next_slot
        self._next_slot += 1
        self.slots[slot] = size
        self.used += size
        return slot

    def free(self, slot: int) -> None:
        size = self.slots.pop(slot, 0)
        self.used -= size


@dataclass(frozen=True)
class Placement:
    """Where a record lives: page id plus slot within the page."""

    page_id: int
    slot: int


class PageStore:
    """Allocates pages and places records on them.

    Placement is *segmented*: callers pass a ``segment`` label (e.g. the
    object type name or a GMR name) and records of the same segment are
    packed together.  This mimics the clustering a real object manager
    would perform and is what makes GMR scans touch far fewer pages than
    object-graph traversals.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._pages: dict[int, Page] = {}
        self._open_page: dict[str, int] = {}
        self._next_page_id = 0

    def __len__(self) -> int:
        return len(self._pages)

    def page(self, page_id: int) -> Page:
        return self._pages[page_id]

    def new_page(self) -> Page:
        page = Page(page_id=self._next_page_id, capacity=self.page_size)
        self._next_page_id += 1
        self._pages[page.page_id] = page
        return page

    def place(self, segment: str, size: int) -> Placement:
        """Place a record of ``size`` bytes in the given segment."""
        if size > self.page_size:
            # Oversized records get a chain of private pages; we model the
            # cost by placing them on a dedicated page (touching it counts
            # once, which is adequate for the simulation).
            page = self.new_page()
            page.capacity = size
            slot = page.allocate(size)
            return Placement(page.page_id, slot)
        open_id = self._open_page.get(segment)
        if open_id is not None:
            page = self._pages[open_id]
            if page.fits(size):
                return Placement(page.page_id, page.allocate(size))
        page = self.new_page()
        self._open_page[segment] = page.page_id
        return Placement(page.page_id, page.allocate(size))

    def remove(self, placement: Placement) -> None:
        page = self._pages.get(placement.page_id)
        if page is not None:
            page.free(placement.slot)


@dataclass
class CostModel:
    """Weights converting buffer counters into one simulated-cost number.

    The defaults make one physical page I/O (a buffer miss, or the
    write-back of a dirty page on eviction — a disk access in the paper's
    setup, 25 ms average on their DEC disk) four orders of magnitude
    more expensive than a buffered access, which is the regime the
    published curves were measured in.
    """

    miss_cost: float = 1.0
    hit_cost: float = 0.0001
    writeback_cost: float = 1.0

    def cost(self, stats: "BufferStats") -> float:
        return (
            stats.misses * self.miss_cost
            + stats.hits * self.hit_cost
            + stats.writebacks * self.writeback_cost
        )


@dataclass
class BufferStats:
    """Counters accumulated by the buffer manager.

    ``writebacks`` counts dirty pages written back on eviction (the
    physical write I/O); ``logical_writes`` counts write *accesses*
    (which merely dirty a resident page).
    """

    logical_reads: int = 0
    logical_writes: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    def snapshot(self) -> "BufferStats":
        return BufferStats(
            self.logical_reads,
            self.logical_writes,
            self.hits,
            self.misses,
            self.writebacks,
        )

    def delta(self, earlier: "BufferStats") -> "BufferStats":
        return BufferStats(
            self.logical_reads - earlier.logical_reads,
            self.logical_writes - earlier.logical_writes,
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.writebacks - earlier.writebacks,
        )


class BufferManager:
    """An LRU page buffer with hit/miss/write-back accounting.

    ``capacity`` is the number of resident pages; ``PAPER_BUFFER_PAGES``
    reproduces the paper's 600 kB configuration.  Writes dirty the
    resident page; the physical write happens (and is counted) when a
    dirty page is evicted.
    """

    def __init__(self, capacity: int = PAPER_BUFFER_PAGES) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        self.capacity = capacity
        self.stats = BufferStats()
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._dirty: set[int] = set()
        #: The page touched last: resident and already at the MRU end,
        #: so touching it again is a hit that reorders nothing.
        self._last: int | None = None

    def touch(self, page_id: int, *, write: bool = False) -> bool:
        """Access a page; returns True on a buffer hit."""
        stats = self.stats
        stats.logical_reads += 1
        if write:
            stats.logical_writes += 1
            self._dirty.add(page_id)
        if page_id == self._last:
            stats.hits += 1
            return True
        self._last = page_id
        resident = self._resident
        if page_id in resident:
            resident.move_to_end(page_id)
            stats.hits += 1
            return True
        stats.misses += 1
        resident[page_id] = None
        if len(resident) > self.capacity:
            evicted, _ = resident.popitem(last=False)
            if evicted in self._dirty:
                self._dirty.discard(evicted)
                stats.writebacks += 1
        return False

    def flush(self) -> int:
        """Write back every dirty resident page; returns the count."""
        count = len(self._dirty & set(self._resident))
        self.stats.writebacks += count
        self._dirty.clear()
        return count

    def evict_all(self) -> None:
        """Drop all resident pages without write-backs (cold start)."""
        self._resident.clear()
        self._dirty.clear()
        self._last = None

    def reset_stats(self) -> None:
        self.stats = BufferStats()

    @property
    def resident_count(self) -> int:
        return len(self._resident)
