"""Columnar page storage and out-of-core execution support.

This package is the storage half of ROADMAP item 2: GLU-style
compressed column pages (generalizing the 2-bit ``PackedSequence``
packing to every SQL type), a byte-budgeted, scan-resistant page
cache that spills cold pages to disk, spillable runs for the streaming
executor (column blocks in the page codec; row-framed only where a join
reads by ordinal), and genomic UDF page kernels that evaluate whole
pages without row-by-row decode.

One :class:`ColumnarRuntime` per :class:`~repro.db.database.Database`
owns the shared pieces — the page cache, the spill policy, and the
value codec — and one ``memory_budget``, read by the cache alone, bounds
resident pages plus what operators hold, as one count.
"""

from __future__ import annotations

from repro.db.columnar.cache import PageCache
from repro.db.columnar.pages import (
    PAGE_ROWS,
    ZONE_EMPTY,
    decode_page,
    encode_page,
    zone_map_of,
)
from repro.db.columnar.spill import (
    BlockRun,
    IndexedRun,
    SpillManager,
    ValueCodec,
)
from repro.db.columnar.store import ColumnStore, GroupView, zone_excludes
from repro.db.columnar.vector import KERNELS

__all__ = [
    "PAGE_ROWS",
    "ZONE_EMPTY",
    "BlockRun",
    "ColumnStore",
    "ColumnarRuntime",
    "GroupView",
    "IndexedRun",
    "KERNELS",
    "PageCache",
    "SpillManager",
    "ValueCodec",
    "decode_page",
    "encode_page",
    "zone_excludes",
    "zone_map_of",
]


class ColumnarRuntime:
    """Per-database hub: page cache + spill policy + value codec.

    ``memory_budget`` (bytes) bounds the encoded pages held in memory
    plus the bytes the streaming operators charge for what they hold;
    ``None`` means unbounded (nothing ever spills).  ``page_rows`` is
    the row-group height — the number of rows sealed into each set of
    column pages.
    """

    def __init__(self, catalog, memory_budget: "int | None" = None,
                 page_rows: int = PAGE_ROWS) -> None:
        self.page_rows = page_rows
        self.codec = ValueCodec(catalog)
        self.cache = PageCache(memory_budget)
        self.spill = SpillManager(self.codec, self.cache, page_rows)

    def column_store(self, schema) -> ColumnStore:
        return ColumnStore(schema, self)

    def close(self) -> None:
        self.cache.close()
