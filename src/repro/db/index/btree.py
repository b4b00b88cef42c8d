"""A B+ tree index supporting equality and range search.

A textbook B+ tree: inner nodes route by separator keys, leaves hold
``key → [row ids]`` postings and are chained left-to-right so range scans
stream in key order.  Deletion is by tombstone-free removal without
rebalancing (leaves may underflow; search cost is unaffected because the
chain and routing stay valid), which keeps the code honest without the
full rebalance machinery this project never stresses.

Keys are compared through :func:`repro.db.values.sort_key`, giving NULL-free
heterogeneous safety; NULL keys are never indexed (SQL convention).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

from repro.db.index.base import Index
from repro.db.values import sort_key
from repro.errors import DatabaseError


class _Leaf:
    __slots__ = ("keys", "postings", "next")

    def __init__(self) -> None:
        self.keys: list = []          # sort_key-wrapped keys
        self.postings: list = []      # parallel: (raw_key, [row_ids])
        self.next: "_Leaf | None" = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list, children: list) -> None:
        self.keys = keys              # separator keys (sort_key-wrapped)
        self.children = children      # len(children) == len(keys) + 1


class BTreeIndex(Index):
    """B+ tree over one column; equality and range capable."""

    probes = frozenset({"equal", "range"})

    def __init__(self, name: str, table_name: str, column: str,
                 order: int = 32) -> None:
        super().__init__(name, table_name, column)
        if order < 4:
            raise DatabaseError("B+ tree order must be at least 4")
        self._order = order
        self._root: "_Leaf | _Inner" = _Leaf()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    # -- descent ---------------------------------------------------------------

    def _find_leaf(self, wrapped: tuple) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            slot = bisect.bisect_right(node.keys, wrapped)
            node = node.children[slot]
        return node

    # -- insertion ---------------------------------------------------------------

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        wrapped = sort_key(key)
        split = self._insert_into(self._root, wrapped, key, row_id)
        if split is not None:
            separator, right = split
            self._root = _Inner([separator], [self._root, right])

    def _insert_into(self, node, wrapped, key, row_id):
        """Insert; returns (separator, new right sibling) on split."""
        if isinstance(node, _Leaf):
            slot = bisect.bisect_left(node.keys, wrapped)
            if slot < len(node.keys) and node.keys[slot] == wrapped:
                node.postings[slot][1].append(row_id)
            else:
                node.keys.insert(slot, wrapped)
                node.postings.insert(slot, (key, [row_id]))
            self._entries += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None

        slot = bisect.bisect_right(node.keys, wrapped)
        split = self._insert_into(node.children[slot], wrapped, key, row_id)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(slot, separator)
        node.children.insert(slot + 1, right)
        if len(node.keys) > self._order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.postings = leaf.postings[middle:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:middle]
        leaf.postings = leaf.postings[:middle]
        leaf.next = right
        return right.keys[0], right

    def _split_inner(self, inner: _Inner):
        middle = len(inner.keys) // 2
        separator = inner.keys[middle]
        right = _Inner(inner.keys[middle + 1:], inner.children[middle + 1:])
        inner.keys = inner.keys[:middle]
        inner.children = inner.children[:middle + 1]
        return separator, right

    # -- deletion ---------------------------------------------------------------

    def delete(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        wrapped = sort_key(key)
        leaf = self._find_leaf(wrapped)
        slot = bisect.bisect_left(leaf.keys, wrapped)
        if slot >= len(leaf.keys) or leaf.keys[slot] != wrapped:
            return
        row_ids = leaf.postings[slot][1]
        try:
            row_ids.remove(row_id)
            self._entries -= 1
        except ValueError:
            return
        if not row_ids:
            del leaf.keys[slot]
            del leaf.postings[slot]

    # -- searches ---------------------------------------------------------------

    def search_equal(self, key: Any) -> Iterable[int]:
        if key is None:
            return ()
        wrapped = sort_key(key)
        leaf = self._find_leaf(wrapped)
        slot = bisect.bisect_left(leaf.keys, wrapped)
        if slot < len(leaf.keys) and leaf.keys[slot] == wrapped:
            return tuple(leaf.postings[slot][1])
        return ()

    def search_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        if low is not None:
            low_wrapped = sort_key(low)
            leaf = self._find_leaf(low_wrapped)
            if include_low:
                slot = bisect.bisect_left(leaf.keys, low_wrapped)
            else:
                slot = bisect.bisect_right(leaf.keys, low_wrapped)
        else:
            node = self._root
            while isinstance(node, _Inner):
                node = node.children[0]
            leaf, slot = node, 0

        high_wrapped = sort_key(high) if high is not None else None
        current: "_Leaf | None" = leaf
        while current is not None:
            while slot < len(current.keys):
                wrapped = current.keys[slot]
                if high_wrapped is not None:
                    if wrapped > high_wrapped:
                        return
                    if wrapped == high_wrapped and not include_high:
                        return
                yield from current.postings[slot][1]
                slot += 1
            current = current.next
            slot = 0
