"""Unit tests for the simulated page store and buffer manager."""

import pytest

from repro.errors import PageFullError
from repro.storage.pages import (
    BufferManager,
    CostModel,
    Page,
    PageStore,
    PAPER_BUFFER_PAGES,
)


class TestPage:
    def test_allocate_within_capacity(self):
        page = Page(page_id=0, capacity=100)
        slot = page.allocate(40)
        assert page.used == 40
        assert page.slots[slot] == 40

    def test_allocate_overflow_raises(self):
        page = Page(page_id=0, capacity=100)
        page.allocate(80)
        with pytest.raises(PageFullError):
            page.allocate(30)

    def test_free_returns_space(self):
        page = Page(page_id=0, capacity=100)
        slot = page.allocate(60)
        page.free(slot)
        assert page.used == 0
        assert page.fits(100)

    def test_free_unknown_slot_is_noop(self):
        page = Page(page_id=0, capacity=100)
        page.free(99)
        assert page.used == 0

    def test_slots_are_unique(self):
        page = Page(page_id=0, capacity=100)
        slots = {page.allocate(10) for _ in range(5)}
        assert len(slots) == 5


class TestPageStore:
    def test_same_segment_packs_together(self):
        store = PageStore(page_size=100)
        first = store.place("a", 40)
        second = store.place("a", 40)
        assert first.page_id == second.page_id

    def test_different_segments_use_different_pages(self):
        store = PageStore(page_size=100)
        first = store.place("a", 40)
        second = store.place("b", 40)
        assert first.page_id != second.page_id

    def test_new_page_on_overflow(self):
        store = PageStore(page_size=100)
        first = store.place("a", 60)
        second = store.place("a", 60)
        assert first.page_id != second.page_id

    def test_oversized_record_gets_private_page(self):
        store = PageStore(page_size=100)
        placement = store.place("a", 250)
        assert store.page(placement.page_id).used == 250

    def test_remove_frees_space(self):
        store = PageStore(page_size=100)
        placement = store.place("a", 60)
        store.remove(placement)
        assert store.page(placement.page_id).used == 0

    def test_page_count(self):
        store = PageStore(page_size=100)
        for _ in range(5):
            store.place("a", 60)
        assert len(store) == 5


class TestBufferManager:
    def test_first_touch_is_miss(self):
        buffer = BufferManager(capacity=4)
        assert buffer.touch(1) is False
        assert buffer.stats.misses == 1

    def test_second_touch_is_hit(self):
        buffer = BufferManager(capacity=4)
        buffer.touch(1)
        assert buffer.touch(1) is True
        assert buffer.stats.hits == 1

    def test_lru_eviction(self):
        buffer = BufferManager(capacity=2)
        buffer.touch(1)
        buffer.touch(2)
        buffer.touch(3)  # evicts 1
        assert buffer.touch(2) is True
        assert buffer.touch(1) is False

    def test_touch_refreshes_lru_position(self):
        buffer = BufferManager(capacity=2)
        buffer.touch(1)
        buffer.touch(2)
        buffer.touch(1)  # 2 is now LRU
        buffer.touch(3)  # evicts 2
        assert buffer.touch(1) is True
        assert buffer.touch(2) is False

    def test_dirty_eviction_counts_writeback(self):
        buffer = BufferManager(capacity=1)
        buffer.touch(1, write=True)
        buffer.touch(2)  # evicts dirty page 1
        assert buffer.stats.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        buffer = BufferManager(capacity=1)
        buffer.touch(1)
        buffer.touch(2)
        assert buffer.stats.writebacks == 0

    def test_flush_writes_resident_dirty_pages(self):
        buffer = BufferManager(capacity=4)
        buffer.touch(1, write=True)
        buffer.touch(2, write=True)
        buffer.touch(3)
        assert buffer.flush() == 2
        assert buffer.stats.writebacks == 2

    def test_capacity_bound(self):
        buffer = BufferManager(capacity=3)
        for page in range(10):
            buffer.touch(page)
        assert buffer.resident_count == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferManager(capacity=0)

    def test_reset_stats(self):
        buffer = BufferManager(capacity=2)
        buffer.touch(1)
        buffer.reset_stats()
        assert buffer.stats.misses == 0
        assert buffer.stats.logical_reads == 0

    def test_stats_delta(self):
        buffer = BufferManager(capacity=2)
        buffer.touch(1)
        snapshot = buffer.stats.snapshot()
        buffer.touch(1)
        buffer.touch(2)
        delta = buffer.stats.delta(snapshot)
        assert delta.logical_reads == 2
        assert delta.hits == 1
        assert delta.misses == 1

    def test_paper_buffer_size(self):
        # 600 kB of 4 kB pages (Sec. 7).
        assert PAPER_BUFFER_PAGES == 150


class TestCostModel:
    def test_misses_dominate(self):
        model = CostModel()
        buffer = BufferManager(capacity=2)
        buffer.touch(1)
        buffer.touch(1)
        cost = model.cost(buffer.stats)
        assert cost == pytest.approx(1.0 + 0.0001)

    def test_writebacks_count_as_io(self):
        model = CostModel()
        buffer = BufferManager(capacity=1)
        buffer.touch(1, write=True)
        buffer.touch(2)
        assert model.cost(buffer.stats) == pytest.approx(2.0 + 1.0)


class TestEvictionPaths:
    """Direct coverage of the eviction/writeback state machine."""

    def test_strict_lru_victim_order(self):
        buffer = BufferManager(capacity=3)
        for page in (1, 2, 3):
            buffer.touch(page)
        buffer.touch(1)  # order now 2, 3, 1
        buffer.touch(4)  # evicts 2
        assert not buffer.touch(2)  # miss: 2 was the victim, evicts 3
        assert not buffer.touch(3)  # miss: 3 went next
        assert buffer.touch(2)      # 2 is resident again

    def test_resident_count_never_exceeds_capacity(self):
        buffer = BufferManager(capacity=4)
        for page in range(50):
            buffer.touch(page, write=(page % 3 == 0))
        assert buffer.resident_count == 4
        assert buffer.stats.misses == 50

    def test_flush_clears_dirtiness(self):
        buffer = BufferManager(capacity=2)
        buffer.touch(1, write=True)
        buffer.touch(2, write=True)
        assert buffer.flush() == 2
        assert buffer.flush() == 0  # nothing left dirty
        buffer.touch(3)  # evicts 1 — already written back, no new writeback
        assert buffer.stats.writebacks == 2

    def test_evict_all_is_writeback_free(self):
        buffer = BufferManager(capacity=3)
        buffer.touch(1, write=True)
        buffer.touch(2)
        buffer.evict_all()
        assert buffer.resident_count == 0
        assert buffer.stats.writebacks == 0
        # The dropped dirty page does not haunt later evictions either.
        for page in (3, 4, 5, 6):
            buffer.touch(page)
        assert buffer.stats.writebacks == 0

    def test_redirtied_page_writes_back_once_per_eviction(self):
        buffer = BufferManager(capacity=1)
        buffer.touch(1, write=True)
        buffer.touch(2)  # evicts dirty 1 → writeback
        buffer.touch(1, write=True)  # re-load and re-dirty
        buffer.touch(3)  # evicts dirty 1 again → second writeback
        assert buffer.stats.writebacks == 2

    def test_eviction_interacts_with_cost_model(self):
        buffer = BufferManager(capacity=1)
        model = CostModel()
        buffer.touch(1, write=True)
        buffer.touch(2)
        expensive = model.cost(buffer.stats)
        clean = BufferManager(capacity=2)
        clean.touch(1)
        clean.touch(2)
        assert expensive > model.cost(clean.stats)


class _ReferenceLRU:
    """The buffer policy spelled out on a plain list, for comparison."""

    def __init__(self, capacity):
        self.capacity, self.order, self.dirty = capacity, [], set()
        self.reads = self.writes = self.hits = self.misses = self.writebacks = 0

    def touch(self, page, write):
        self.reads += 1
        if write:
            self.writes += 1
            self.dirty.add(page)
        hit = page in self.order
        if hit:
            self.order.remove(page)
            self.hits += 1
        else:
            self.misses += 1
        self.order.append(page)
        if len(self.order) > self.capacity:
            victim = self.order.pop(0)
            if victim in self.dirty:
                self.dirty.discard(victim)
                self.writebacks += 1
        return hit

    def flush(self):
        count = len(self.dirty & set(self.order))
        self.writebacks += count
        self.dirty.clear()
        return count

    def evict_all(self):
        self.order.clear()
        self.dirty.clear()


class TestBufferAgainstReference:
    @pytest.mark.parametrize("capacity", [1, 2, 32])
    def test_random_touches_match_reference_lru(self, capacity):
        """Same return values and same five counters as the reference —
        repeated touches of one page (the short-circuited hit) included."""
        import dataclasses
        import random

        rng = random.Random(capacity)
        buffer, reference = BufferManager(capacity=capacity), _ReferenceLRU(capacity)
        page = 0
        for _ in range(10_000):
            draw = rng.random()
            if draw < 0.01:
                assert buffer.flush() == reference.flush()
            elif draw < 0.02:
                buffer.evict_all()
                reference.evict_all()
            else:
                if rng.random() < 0.6:  # else: touch the same page again
                    page = rng.randrange(2 * capacity + 2)
                write = rng.random() < 0.3
                assert buffer.touch(page, write=write) == reference.touch(page, write)
        assert dataclasses.astuple(buffer.stats) == (
            reference.reads,
            reference.writes,
            reference.hits,
            reference.misses,
            reference.writebacks,
        )
