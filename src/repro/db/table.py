"""Heap tables: row storage with constraint enforcement and index upkeep."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.db.index.base import Index
from repro.db.index.hashindex import UniqueHashIndex, hashable
from repro.db.schema import TableSchema
from repro.db.values import NULL
from repro.errors import DatabaseError


class RowHeap:
    """The legacy heap: a dict of row id → row list in row-id order."""

    def __init__(self) -> None:
        self._rows: dict[int, list[Any]] = {}
        self._put_back = False  # a row went back in: re-sort on next scan

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row_id: int, row: list[Any]) -> None:
        self._rows[row_id] = row

    def has(self, row_id: int) -> bool:
        return row_id in self._rows

    def get(self, row_id: int) -> "list[Any] | None":
        return self._rows.get(row_id)

    def replace(self, row_id: int, row: list[Any]) -> None:
        self._rows[row_id] = row

    def remove(self, row_id: int) -> None:
        del self._rows[row_id]

    def put_back(self, row_id: int, row: list[Any], _place: None) -> None:
        self._rows[row_id] = row
        self._put_back = True

    def clear(self) -> None:
        self._rows.clear()

    def items(self) -> Iterator[tuple[int, list[Any]]]:
        if self._put_back:
            self._rows = dict(sorted(self._rows.items()))
            self._put_back = False
        yield from self._rows.items()


class Table:
    """A heap of rows with stable integer row ids.

    The table keeps every :class:`~repro.db.index.base.Index`
    synchronized on each mutation.  PRIMARY KEY / UNIQUE columns get a
    :class:`~repro.db.index.hashindex.UniqueHashIndex` from the schema:
    it enforces the constraint and is an access path like any attached
    index, but cannot be detached.  Row storage is pluggable:
    ``layout="row"`` keeps the
    classic in-memory row-list heap; ``layout="column"`` stores rows as
    sealed column pages (:class:`~repro.db.columnar.store.ColumnStore`)
    behind the same protocol — stable ids, insertion-order iteration,
    in-place updates — so the executor sees identical rows either way.
    """

    def __init__(self, schema: TableSchema, layout: str = "row",
                 runtime=None) -> None:
        self.schema = schema
        self.layout = layout
        if layout == "column":
            if runtime is None:
                raise DatabaseError(
                    "columnar tables need a ColumnarRuntime"
                )
            self._heap = runtime.column_store(schema)
        elif layout == "row":
            self._heap = RowHeap()
        else:
            raise DatabaseError(f"unknown table layout {layout!r}")
        self._next_row_id = 1
        self._statistics: "dict[str, int] | None" = None
        #: Called when an access path or statistic changes (index
        #: attach/detach, ANALYZE); the catalog points it at its version
        #: bump so cached plans over this table are re-planned.
        self.on_plan_change: Callable[[], None] = lambda: None
        key_columns = dict.fromkeys(
            filter(None, (schema.primary_key, *schema.unique))
        )
        # "$" keeps the names out of the namespace CREATE INDEX draws
        # from: no bare identifier can spell one.
        self._key_indexes = tuple(
            UniqueHashIndex(f"${schema.name}_{column}_key", schema.name,
                            column)
            for column in key_columns
        )
        self._indexes: dict[str, Index] = {
            index.name: index for index in self._key_indexes
        }

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    @property
    def column_store(self):
        """The backing :class:`ColumnStore` (``None`` for row layout)."""
        return self._heap if self.layout == "column" else None

    # -- reading -----------------------------------------------------------------

    def rows(self) -> Iterator[tuple[int, list[Any]]]:
        """Iterate ``(row_id, row)`` pairs in insertion order."""
        yield from self._heap.items()

    def row(self, row_id: int) -> list[Any]:
        row = self._heap.get(row_id)
        if row is None:
            raise DatabaseError(
                f"table {self.name!r} has no row id {row_id}"
            )
        return row

    def has_row(self, row_id: int) -> bool:
        return self._heap.has(row_id)

    # -- mutation --------------------------------------------------------------------

    def _check_keys(self, row: list[Any], row_id: "int | None") -> None:
        """Raise ``ConstraintError`` if *row* would duplicate a key held
        by a row other than *row_id* — before anything is changed."""
        for index in self._key_indexes:
            index.check(row[self.schema.position(index.column)], row_id)

    def insert(self, row: Iterable[Any]) -> int:
        """Validate and insert one full row; returns its row id."""
        validated = self.schema.validate_row(row)
        self._check_keys(validated, None)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._heap.append(row_id, validated)
        for index in self._indexes.values():
            index.insert(validated[self.schema.position(index.column)], row_id)
        return row_id

    def insert_named(self, **named_values: Any) -> int:
        """Insert from column-name keywords, applying schema defaults."""
        return self.insert(self.schema.complete_row(named_values))

    def delete(self, row_id: int) -> tuple[list[Any], Any]:
        """Remove one row; returns it and its place in the heap — what
        :meth:`put_back` takes to undo the delete."""
        row = self.row(row_id)
        place = self._heap.remove(row_id)
        for index in self._indexes.values():
            index.delete(row[self.schema.position(index.column)], row_id)
        return row, place

    def put_back(self, row_id: int, row: list[Any], place: Any) -> None:
        """Undo :meth:`delete`: the row returns under its own row id, in
        its scan position (row ids are never reused, so it is free)."""
        self._heap.put_back(row_id, row, place)
        for index in self._indexes.values():
            index.insert(row[self.schema.position(index.column)], row_id)

    def update(self, row_id: int, new_row: Iterable[Any]) -> None:
        """Replace one row in place (same row id)."""
        old_row = self.row(row_id)
        validated = self.schema.validate_row(new_row)
        self._check_keys(validated, row_id)
        for index in self._indexes.values():
            position = self.schema.position(index.column)
            if old_row[position] != validated[position]:
                index.delete(old_row[position], row_id)
                index.insert(validated[position], row_id)
        self._heap.replace(row_id, validated)

    def truncate(self) -> None:
        """Remove all rows (keeps schema and indexes)."""
        self._heap.clear()
        for index in self._indexes.values():
            index.clear()

    # -- indexes -----------------------------------------------------------------------

    def attach_index(self, index: Index) -> None:
        """Register an index and backfill it from current rows."""
        if index.name in self._indexes:
            raise DatabaseError(f"index {index.name!r} already attached")
        self.schema.require_column(index.column)
        position = self.schema.position(index.column)
        for row_id, row in self._heap.items():
            index.insert(row[position], row_id)
        self._indexes[index.name] = index
        self.on_plan_change()

    def detach_index(self, name: str) -> Index:
        index = self._indexes.get(name.lower())
        if index is None:
            raise DatabaseError(f"no index named {name!r}")
        if index.unique:
            raise DatabaseError(
                f"index {index.name!r} enforces a key of table "
                f"{self.name!r} and cannot be detached"
            )
        del self._indexes[index.name]
        self.on_plan_change()
        return index

    @property
    def indexes(self) -> tuple[Index, ...]:
        return tuple(self._indexes.values())

    def indexes_on(self, column: str) -> tuple[Index, ...]:
        column = column.lower()
        return tuple(
            index for index in self._indexes.values()
            if index.column == column
        )

    # -- statistics (ANALYZE) ---------------------------------------------------------

    @property
    def statistics(self) -> "dict[str, int] | None":
        """Per-column distinct counts, or ``None`` before ANALYZE."""
        return self._statistics

    def collect_statistics(self) -> dict[str, int]:
        """Compute distinct-value counts per column (the ANALYZE pass).

        NULLs are excluded (they never match equality predicates).  The
        optimizer uses ``1 / ndistinct`` as the equality selectivity of
        analyzed columns instead of the fixed default.
        """
        distinct: list[set] = [set() for _ in self.schema.columns]
        for _, row in self._heap.items():
            for position, value in enumerate(row):
                if value is not NULL:
                    distinct[position].add(hashable(value))
        counts = {
            column.name: len(distinct[position])
            for position, column in enumerate(self.schema.columns)
        }
        self._statistics = counts
        self.on_plan_change()
        return counts
