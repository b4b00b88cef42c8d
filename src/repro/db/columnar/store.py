"""Column store: a table heap organized as sealed per-column pages.

Rows arrive row-major into a small **tail**; every ``page_rows`` rows
the tail seals into one **row group** — one encoded column page per
column, admitted to the engine's :class:`~repro.db.columnar.cache.
PageCache` (which may immediately evict cold pages to disk under the
``memory_budget``).  Row ids keep the exact semantics of the legacy
row-dict heap: stable, never reused, iteration in insertion order,
updates in place — so the two layouts are observably identical to the
executor above, row for row.

Deletes tombstone the ordinal and leave the row where it is (pages are
immutable), so a rolled-back delete revives it in place; updates rewrite
the affected column pages in place under fresh page ids, preserving the
row's scan position.  Each sealed page carries its zone map, which
:meth:`ColumnStore.scan` uses to skip whole groups that provably
cannot satisfy a comparison predicate, and the kernels' *cell pages*
sealed over it (:meth:`ColumnStore.cells`).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import Iterator

from repro.db.columnar import pages as page_codec
from repro.db.columnar.pages import ZONE_EMPTY
from repro.db.values import NULL
from repro.obs.metrics import count


class PageRef:
    """One sealed column page: cache handle, zone map, size, cell pages."""

    __slots__ = ("page_id", "nbytes", "zone", "cells")

    def __init__(self, page_id: int, nbytes: int, zone) -> None:
        self.page_id = page_id
        self.nbytes = nbytes
        self.zone = zone
        self.cells: dict = {}


class RowGroup:
    """``count`` consecutive ordinals sealed as one page per column."""

    __slots__ = ("start", "count", "row_ids", "pages")

    def __init__(self, start: int, count: int, row_ids: list,
                 pages: "list[PageRef]") -> None:
        self.start = start
        self.count = count
        self.row_ids = row_ids
        self.pages = pages


def zone_excludes(zone, low, include_low, high, include_high) -> bool:
    """True when no value in *zone* can satisfy ``low <?= v <?= high``.

    Conservative: only prunes when the zone and the bounds are of the
    same totally ordered category (both numeric or both str), so a
    mistyped predicate still reaches the filter and raises exactly as
    the row-at-a-time path would.  A NULL bound excludes everything
    (comparisons with NULL are never true).
    """
    if zone is None:
        return False
    if zone == ZONE_EMPTY:
        return True
    lowest, highest = zone
    numeric = isinstance(lowest, (int, float))
    for bound, opposite, inclusive in (
        (low, highest, include_low), (high, lowest, include_high)
    ):
        if bound is None:
            continue
        if bound is NULL:
            return True
        if isinstance(bound, bool):
            return False
        if numeric != isinstance(bound, (int, float)):
            return False
        if not numeric and not isinstance(bound, str):
            return False
    if low is not None:
        if highest < low or (highest == low and not include_low):
            return True
    if high is not None:
        if lowest > high or (lowest == high and not include_high):
            return True
    return False


class GroupView:
    """One scannable unit: a sealed row group or the unsealed tail.

    A sealed group's pages are read one column at a time, the first time
    that column is asked for: a scan pays for the columns its plan reads
    and no others.  What a view hands out may be shared by other scans
    (:meth:`ColumnStore.form`): never written to.
    """

    __slots__ = ("_store", "_group", "row_ids", "_tail_rows")

    def __init__(self, store: "ColumnStore", group: "RowGroup | None",
                 row_ids: list, tail_rows: "list | None" = None) -> None:
        self._store = store
        self._group = group
        self.row_ids = row_ids  # None entries mark tombstones
        self._tail_rows = tail_rows

    def seq_rows(self, position: int) -> "page_codec.SeqPage | None":
        """One column as the page kernels read it (:class:`pages.SeqPage`):
        verified and parsed, not decoded.  ``None`` for the tail and for
        a page that is not SEQ-encoded."""
        if self._group is None:
            return None
        return self._store.form(self._group.pages[position].page_id, SEQ,
                                page_codec.seq_page)

    def column_values(self, position: int) -> list:
        """Positional values of one column (tombstones included)."""
        if self._group is None:
            return [row[position] for row in self._tail_rows]
        return self._store.values(self._group.pages[position].page_id)

    def kernel_cells(self, position: int, key, run) -> list:
        """``run(page, values_fn)``: a page kernel's cells for a call on
        the column alone, from its cell page (:meth:`ColumnStore.cells`)."""
        values_fn = partial(self.column_values, position)
        if self._group is None:
            return run(None, values_fn)
        return self._store.cells(self._group.pages[position], key, run,
                                 values_fn)

    def enumerate_rows(self) -> Iterator[tuple[int, tuple]]:
        """Live ``(offset, row)`` pairs in ordinal order, every column
        decoded — whole-row access (``ColumnStore.items``); a query scans
        through :meth:`column_values`.  Offsets index ``row_ids``."""
        columns = [self.column_values(position)
                   for position in range(len(self._store.schema.columns))]
        for offset, (row_id, row) in enumerate(zip(self.row_ids,
                                                   zip(*columns))):
            if row_id is not None:
                yield offset, row


VALUES, SEQ = "values", "seq"  # form keys; a cell page's: (tag, function)


class ColumnStore:
    """The columnar heap behind one table (see module docstring)."""

    def __init__(self, schema, runtime) -> None:
        self.schema = schema
        self.runtime = runtime
        self.page_rows = runtime.page_rows
        self._groups: list[RowGroup] = []
        self._starts: list[int] = []  # group start ordinals, for bisect
        self._tail_start = 0
        self._tail: list[list] = []
        self._tail_ids: list["int | None"] = []
        self._ordinal_of: dict[int, int] = {}
        self._live = 0

    def __len__(self) -> int:
        return self._live

    # -- page plumbing ------------------------------------------------------

    def form(self, page_id: int, key, build, scan=True):
        """Form *key* of one sealed page, built once per residency if the
        cache keeps forms (no budget).  Every call is one ``pages_read``
        and one CRC32 check: a kept form skips decoding, never verification."""
        count("columnar", "pages_read")
        data, forms = self.runtime.cache.get(page_id, scan)
        if key in forms:
            page_codec.verify(data, page_id)
            return forms[key]
        count("columnar", "pages_decoded")
        return forms.setdefault(key, build(data, page_id=page_id))
    def values(self, page_id: int, scan=True) -> list:
        """The positional values of one sealed page (its kept form)."""
        return self.form(page_id, VALUES, lambda data, page_id: (
            page_codec.decode_page(data, self.runtime.codec,
                                   page_id=page_id)), scan=scan)

    def cells(self, ref: PageRef, key, run, values_fn) -> list:
        """A kernel's cells ``run(SeqPage, values_fn)`` over page *ref*,
        sealed once as its cell page *key* if a page holds them exactly;
        a read checks the CRC32 of *ref*, then of the cell page."""
        count("columnar", "pages_read")
        data = self.runtime.cache.get(ref.page_id, True)[0]
        if key in ref.cells:
            page_codec.verify(data, ref.page_id)
            return self.values(ref.cells[key])
        count("columnar", "pages_decoded")
        cells = run(page_codec.seq_page(data, page_id=ref.page_id), values_fn)
        kinds = set(map(type, cells)) - {type(NULL)}
        if kinds in ({int}, {float}, {bool}, set()):  # INT, FLOAT, BOOL
            sealed = page_codec.encode_page(cells, None, self.runtime.codec)
            with self.runtime.cache.lock:  # one cell page per page, kernel
                if key not in ref.cells:
                    ref.cells[key] = cell = self.runtime.cache.put(sealed)
                    self.runtime.cache.get(cell)[1][VALUES] = cells
        return cells

    def _seal_tail(self) -> None:
        codec = self.runtime.codec
        refs = []
        for position, column in enumerate(self.schema.columns):
            values = [row[position] for row in self._tail]
            data = page_codec.encode_page(values, column.sql_type.name,
                                          codec)
            page_id = self.runtime.cache.put(data)
            refs.append(PageRef(page_id, len(data),
                                page_codec.zone_map_of(values)))
        group = RowGroup(self._tail_start, len(self._tail),
                         list(self._tail_ids), refs)
        self._groups.append(group)
        self._starts.append(group.start)
        self._tail_start += len(self._tail)
        self._tail = []
        self._tail_ids = []

    def _group_at(self, ordinal: int) -> RowGroup:
        return self._groups[bisect_right(self._starts, ordinal) - 1]

    # -- heap protocol ------------------------------------------------------

    def append(self, row_id: int, row: list) -> None:
        ordinal = self._tail_start + len(self._tail)
        self._tail.append(list(row))
        self._tail_ids.append(row_id)
        self._ordinal_of[row_id] = ordinal
        self._live += 1
        if len(self._tail) >= self.page_rows:
            self._seal_tail()

    def has(self, row_id: int) -> bool:
        return row_id in self._ordinal_of

    def get(self, row_id: int) -> "list | None":
        ordinal = self._ordinal_of.get(row_id)
        if ordinal is None:
            return None
        if ordinal >= self._tail_start:
            return list(self._tail[ordinal - self._tail_start])
        group = self._group_at(ordinal)
        offset = ordinal - group.start
        return [self.values(ref.page_id, scan=False)[offset]
                for ref in group.pages]

    def replace(self, row_id: int, row: list) -> None:
        ordinal = self._ordinal_of[row_id]
        if ordinal >= self._tail_start:
            self._tail[ordinal - self._tail_start] = list(row)
            return
        group = self._group_at(ordinal)
        offset = ordinal - group.start
        cache = self.runtime.cache
        for position, (column, ref, new) in enumerate(
                zip(self.schema.columns, group.pages, row)):
            values = list(self.values(ref.page_id, scan=False))
            if values[offset] is new or (values[offset] == new and
                                         type(values[offset]) is type(new)):
                continue
            values[offset] = new
            data = page_codec.encode_page(values, column.sql_type.name,
                                          self.runtime.codec)
            cache.drop(ref.page_id, *ref.cells.values())
            page_id = cache.put(data)
            cache.get(page_id)[1][VALUES] = values  # what the page decodes to
            group.pages[position] = PageRef(page_id, len(data),
                                            page_codec.zone_map_of(values))

    def remove(self, row_id: int) -> int:
        """Tombstone *row_id*; returns its ordinal for :meth:`put_back`."""
        ordinal = self._ordinal_of.pop(row_id)
        self._live -= 1
        self._set_id(ordinal, None)
        return ordinal

    def put_back(self, row_id: int, row: list, ordinal: int) -> None:
        """Revive the tombstone :meth:`remove` left at *ordinal*."""
        self._ordinal_of[row_id] = ordinal
        self._live += 1
        self._set_id(ordinal, row_id)

    def _set_id(self, ordinal: int, row_id: "int | None") -> None:
        if ordinal >= self._tail_start:
            self._tail_ids[ordinal - self._tail_start] = row_id
        else:
            group = self._group_at(ordinal)
            group.row_ids[ordinal - group.start] = row_id

    def items(self) -> Iterator[tuple[int, list]]:
        for view in self.scan():
            row_ids = view.row_ids
            for offset, row in view.enumerate_rows():
                yield row_ids[offset], list(row)

    # -- scanning -----------------------------------------------------------

    def scan(self, bounds=None,
             reading: "int | None" = None) -> Iterator[GroupView]:
        """Yield group views; *bounds* prunes groups via zone maps.

        ``bounds`` is a list of ``(position, low, include_low, high,
        include_high)`` with already-evaluated bound values.  *reading*
        is how many column pages of each group the caller goes on to
        read (default: all of them): a pruned group counts that many
        ``pages_skipped``, the reads it actually saved.
        """
        if reading is None:
            reading = len(self.schema.columns)
        for group in self._groups:
            if all(row_id is None for row_id in group.row_ids):
                continue
            if bounds and any(
                zone_excludes(group.pages[position].zone, low, inc_low,
                              high, inc_high)
                for position, low, inc_low, high, inc_high in bounds
            ):
                count("columnar", "pages_skipped", reading)
                continue
            yield GroupView(self, group, group.row_ids)
        if self._tail:
            yield GroupView(self, None, self._tail_ids,
                            tail_rows=self._tail)
