"""A B+ tree index with duplicate support and range scans.

Used by the GMR store as the conventional, one-dimensional index over a
single GMR column (Sec. 3.3: for GMRs of higher arity the grid file is
not suitable, so per-column indexes are chosen "according to the expected
query mix").  Also backs attribute indexes such as the ``CuboidID`` index
the paper's forward-query benchmark relies on.

Keys may be any mutually comparable values; duplicates are handled by
keeping a list of values per key inside the leaves.  Every node visit
touches the node's simulated page so index traversals contribute to the
I/O accounting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from typing import Any

from repro.storage.pages import BufferManager, PageStore

_DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "page_id")

    def __init__(self, page_id: int) -> None:
        self.keys: list[Any] = []
        self.page_id = page_id


class _Leaf(_Node):
    __slots__ = ("values", "next_leaf", "prev_leaf")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.values: list[list[Any]] = []
        self.next_leaf: _Leaf | None = None
        self.prev_leaf: _Leaf | None = None


class _Inner(_Node):
    __slots__ = ("children",)

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.children: list[_Node] = []


class BPlusTree:
    """B+ tree mapping comparable keys to (possibly multiple) values.

    Parameters
    ----------
    page_store, buffer:
        Optional simulated-storage hooks.  When given, every node access
        touches the node's page so searches and scans are charged I/O.
    order:
        Maximum number of keys per node (minimum 3).
    """

    def __init__(
        self,
        page_store: PageStore | None = None,
        buffer: BufferManager | None = None,
        *,
        order: int = _DEFAULT_ORDER,
        segment: str = "btree",
    ) -> None:
        if order < 3:
            raise ValueError("B+ tree order must be at least 3")
        self.order = order
        self._pages = page_store
        self._buffer = buffer
        self._segment = segment
        self._size = 0
        self._root: _Node = self._new_leaf()

    # -- node/page plumbing -------------------------------------------------

    def _new_page_id(self) -> int:
        if self._pages is None:
            return -1
        return self._pages.place(self._segment, self._pages.page_size).page_id

    def _new_leaf(self) -> _Leaf:
        return _Leaf(self._new_page_id())

    def _new_inner(self) -> _Inner:
        return _Inner(self._new_page_id())

    def _touch(self, node: _Node, *, write: bool = False) -> None:
        if self._buffer is not None and node.page_id >= 0:
            self._buffer.touch(node.page_id, write=write)

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while isinstance(node, _Inner):
            height += 1
            node = node.children[0]
        return height

    def insert(self, key: Any, value: Any) -> None:
        """Insert a (key, value) entry; duplicate keys are allowed."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = self._new_inner()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def remove(self, key: Any, value: Any) -> bool:
        """Remove one (key, value) entry; returns False if absent."""
        removed = self._remove(self._root, key, value)
        if removed:
            self._size -= 1
            if isinstance(self._root, _Inner) and len(self._root.children) == 1:
                self._root = self._root.children[0]
        return removed

    def search(self, key: Any) -> list[Any]:
        """Return all values stored under ``key`` (empty list if none)."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def sample_key(self) -> Any:
        """Some key of the tree (``None`` when empty), read off the root
        without a page touch — catalog knowledge for the planner, which
        declines a probe constant the keys cannot be ordered against."""
        keys = self._root.keys
        return keys[0] if keys else None

    def contains(self, key: Any, value: Any) -> bool:
        return value in self.search(key)

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with low <= key <= high, in key order.

        ``None`` bounds are open (scan from the smallest / to the largest
        key).  Exclusive bounds via ``include_low=False`` etc.
        """
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            index = 0
        else:
            leaf = self._find_leaf(low)
            if include_low:
                index = bisect_left(leaf.keys, low)
            else:
                index = bisect_right(leaf.keys, low)
        while leaf is not None:
            for position in range(index, len(leaf.keys)):
                key = leaf.keys[position]
                if high is not None:
                    if include_high:
                        if key > high:
                            return
                    elif key >= high:
                        return
                for value in leaf.values[position]:
                    yield key, value
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf)
            index = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range_scan()

    def keys(self) -> Iterator[Any]:
        seen_leaf = self._leftmost_leaf()
        while seen_leaf is not None:
            yield from seen_leaf.keys
            seen_leaf = seen_leaf.next_leaf

    # -- internals -----------------------------------------------------------

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        self._touch(node)
        while isinstance(node, _Inner):
            node = node.children[0]
            self._touch(node)
        return node  # type: ignore[return-value]

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        self._touch(node)
        while isinstance(node, _Inner):
            index = bisect_right(node.keys, key)
            node = node.children[index]
            self._touch(node)
        return node  # type: ignore[return-value]

    def _insert(
        self, node: _Node, key: Any, value: Any
    ) -> tuple[Any, _Node] | None:
        self._touch(node, write=True)
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(value)
                return None
            node.keys.insert(index, key)
            node.values.insert(index, [value])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Inner)
        index = bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        insort_position = bisect_right(node.keys, separator)
        node.keys.insert(insort_position, separator)
        node.children.insert(insort_position + 1, right)
        if len(node.keys) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = self._new_leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next_leaf = leaf.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        right.prev_leaf = leaf
        leaf.next_leaf = right
        self._touch(right, write=True)
        return right.keys[0], right

    def _split_inner(self, inner: _Inner) -> tuple[Any, _Inner]:
        middle = len(inner.keys) // 2
        separator = inner.keys[middle]
        right = self._new_inner()
        right.keys = inner.keys[middle + 1 :]
        right.children = inner.children[middle + 1 :]
        inner.keys = inner.keys[:middle]
        inner.children = inner.children[: middle + 1]
        self._touch(right, write=True)
        return separator, right

    def _remove(self, node: _Node, key: Any, value: Any) -> bool:
        self._touch(node, write=True)
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            bucket = node.values[index]
            try:
                bucket.remove(value)
            except ValueError:
                return False
            if not bucket:
                node.keys.pop(index)
                node.values.pop(index)
            return True
        assert isinstance(node, _Inner)
        index = bisect_right(node.keys, key)
        child = node.children[index]
        removed = self._remove(child, key, value)
        if removed:
            self._rebalance(node, index)
        return removed

    def _min_keys(self) -> int:
        return self.order // 2

    def _rebalance(self, parent: _Inner, index: int) -> None:
        child = parent.children[index]
        if len(child.keys) >= self._min_keys():
            return
        if isinstance(child, _Leaf):
            self._rebalance_leaf(parent, index, child)
        else:
            self._rebalance_inner(parent, index, child)

    def _rebalance_leaf(self, parent: _Inner, index: int, leaf: _Leaf) -> None:
        minimum = self._min_keys()
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if isinstance(left, _Leaf) and len(left.keys) > minimum:
            leaf.keys.insert(0, left.keys.pop())
            leaf.values.insert(0, left.values.pop())
            parent.keys[index - 1] = leaf.keys[0]
            self._touch(left, write=True)
            return
        if isinstance(right, _Leaf) and len(right.keys) > minimum:
            leaf.keys.append(right.keys.pop(0))
            leaf.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
            self._touch(right, write=True)
            return
        if isinstance(left, _Leaf):
            self._merge_leaves(parent, index - 1, left, leaf)
        elif isinstance(right, _Leaf):
            self._merge_leaves(parent, index, leaf, right)

    def _merge_leaves(
        self, parent: _Inner, separator_index: int, left: _Leaf, right: _Leaf
    ) -> None:
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.next_leaf = right.next_leaf
        if left.next_leaf is not None:
            left.next_leaf.prev_leaf = left
        parent.keys.pop(separator_index)
        parent.children.pop(separator_index + 1)
        self._touch(left, write=True)
        if self._pages is not None and right.page_id >= 0:
            # Merged-away node's page is logically freed; the simulation
            # only needs to stop touching it, which it will.
            pass

    def _rebalance_inner(self, parent: _Inner, index: int, inner: _Inner) -> None:
        minimum = self._min_keys()
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if isinstance(left, _Inner) and len(left.keys) > minimum:
            inner.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            inner.children.insert(0, left.children.pop())
            self._touch(left, write=True)
            return
        if isinstance(right, _Inner) and len(right.keys) > minimum:
            inner.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            inner.children.append(right.children.pop(0))
            self._touch(right, write=True)
            return
        if isinstance(left, _Inner):
            left.keys.append(parent.keys[index - 1])
            left.keys.extend(inner.keys)
            left.children.extend(inner.children)
            parent.keys.pop(index - 1)
            parent.children.pop(index)
            self._touch(left, write=True)
        elif isinstance(right, _Inner):
            inner.keys.append(parent.keys[index])
            inner.keys.extend(right.keys)
            inner.children.extend(right.children)
            parent.keys.pop(index)
            parent.children.pop(index + 1)
            self._touch(inner, write=True)

    # -- validation (used by tests) -------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        self._check_node(self._root, is_root=True)
        keys = list(self.keys())
        assert keys == sorted(keys), "leaf chain out of order"

    def _check_node(self, node: _Node, *, is_root: bool) -> tuple[Any, Any] | None:
        if isinstance(node, _Leaf):
            assert node.keys == sorted(node.keys)
            assert len(node.keys) == len(node.values)
            if not is_root:
                assert len(node.keys) >= 1
            if node.keys:
                return node.keys[0], node.keys[-1]
            return None
        assert isinstance(node, _Inner)
        assert len(node.children) == len(node.keys) + 1
        assert node.keys == sorted(node.keys)
        if not is_root:
            assert len(node.keys) >= 1
        low = high = None
        for child_index, child in enumerate(node.children):
            child_range = self._check_node(child, is_root=False)
            if child_range is None:
                continue
            child_low, child_high = child_range
            if child_index > 0:
                assert child_low >= node.keys[child_index - 1]
            if child_index < len(node.keys):
                assert child_high <= node.keys[child_index] or (
                    child_high == node.keys[child_index]
                )
            if low is None:
                low = child_low
            high = child_high
        if low is None:
            return None
        return low, high
