"""Hash indexes: O(1) equality lookups, no ordering.

:class:`HashIndex` is the ``CREATE INDEX … USING hash`` structure;
:class:`UniqueHashIndex` is the index a table builds for each PRIMARY
KEY / UNIQUE column — it both enforces the constraint and serves
``column = value`` lookups to the planner.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.db.index.base import Index
from repro.errors import ConstraintError


def hashable(key: Any) -> Any:
    """Make unhashable-but-indexable keys (rare) usable as dict keys."""
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)


class HashIndex(Index):
    """Dictionary-backed index over one column."""

    probes = frozenset({"equal"})

    def __init__(self, name: str, table_name: str, column: str) -> None:
        super().__init__(name, table_name, column)
        self._buckets: dict[Any, list[int]] = {}
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        self._buckets.setdefault(hashable(key), []).append(row_id)
        self._entries += 1

    def delete(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        bucket = self._buckets.get(hashable(key))
        if not bucket:
            return
        try:
            bucket.remove(row_id)
            self._entries -= 1
        except ValueError:
            return
        if not bucket:
            del self._buckets[hashable(key)]

    def search_equal(self, key: Any) -> Iterable[int]:
        try:  # NULL is never a key: it finds nothing
            return tuple(self._buckets.get(key, ()))
        except TypeError:
            return tuple(self._buckets.get(hashable(key), ()))


class UniqueHashIndex(HashIndex):
    """A :class:`HashIndex` over a PRIMARY KEY / UNIQUE column.

    Owned by the table (built from its schema, never by ``CREATE
    INDEX``).  The table calls :meth:`check` before it changes anything,
    so a violating statement leaves heap and indexes untouched and no
    bucket ever holds two row ids; NULLs are not indexed and therefore
    never collide.
    """

    unique = True

    def check(self, key: Any, row_id: "int | None" = None) -> None:
        """Raise unless *key* is free, or held by *row_id* itself."""
        if key is None:
            return
        bucket = self._buckets.get(hashable(key))
        if bucket and bucket != [row_id]:
            raise ConstraintError(
                f"duplicate value {key!r} for unique column "
                f"{self.table_name}.{self.column}"
            )
