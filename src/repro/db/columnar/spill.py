"""Bounded-memory runs for the streaming SQL executor.

Every pipeline-breaking operator (ORDER BY, GROUP BY, the join build
sides) used to call ``list(child.execute(...))`` — unbounded
materialization.  The runs here are the budgeted replacement: an
operator spills when the page cache refuses to charge (:func:`footprint`).

Two shapes:

- :class:`BlockRun` — sequential **column blocks** on disk (external-
  sort runs, spilled aggregate partitions).  A block is at most
  ``page_rows`` rows: per column, a ``<I`` length and one
  :func:`~repro.db.columnar.pages.encode_page` page — the table's own
  codec, encoding chosen from the values, CRC32 footer and all.  A
  damaged, cut or short run raises :class:`~repro.errors.StorageError`
  (``bit_rot`` / ``malformed``) naming run and block.
- :class:`IndexedRun` — offset-addressed random access (a join's
  build rows, referenced by ordinal from the hash buckets or walked in
  order by the nested loop), in memory while the cache grants it.  It
  alone keeps **row framing** — one :class:`ValueCodec` line per row,
  the ``$bytes`` / ``$udt`` tagging the WAL uses — because the join
  fetches single rows, which a column block cannot serve without
  decoding their neighbours.

Spill volume is visible as ``executor_spill_rows`` / ``_bytes`` /
``_runs`` counters, bumped per block (per row by an :class:`IndexedRun`).
"""

from __future__ import annotations

import itertools
import json
import tempfile
from typing import Any, Iterator, Sequence

from repro.core.types.sequence import PackedSequence
from repro.db.columnar.pages import PAGE_ROWS, decode_page, encode_page
from repro.db.values import NULL
from repro.errors import StorageError
from repro.obs.metrics import count

_SIZED = (str, bytes, bytearray, PackedSequence)


def footprint(columns: Sequence[Sequence[Any]]) -> int:
    """Bytes held as *columns*: 8 a cell (the page codec's fixed width),
    plus the ``len()`` of each str, bytes or sequence cell."""
    return sum(8 * len(column) + (
        sum(len(cell) for cell in column if isinstance(cell, _SIZED))
        if any(issubclass(kind, _SIZED) for kind in set(map(type, column)))
        else 0) for column in columns)


class ValueCodec:
    """JSON-safe encoding of row tuples (bytes and UDTs tagged in-band).

    Standalone twin of the WAL's value tagging (``repro.db.storage``)
    against a bare catalog, so the columnar layer does not import the
    persistence layer.
    """

    def __init__(self, catalog) -> None:
        self._catalog = catalog

    def encode_value(self, value: Any) -> Any:
        if value is NULL or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (bytes, bytearray)):
            return {"$bytes": bytes(value).hex()}
        opaque = self._catalog.opaque_type_for(value)
        if opaque is not None:
            return {"$udt": opaque.name, "data": opaque.serialize(value).hex()}
        raise StorageError(
            f"cannot spill value of type {type(value).__name__}; "
            f"register an OpaqueType for it first"
        )

    def decode_value(self, encoded: Any) -> Any:
        if isinstance(encoded, dict):
            if "$bytes" in encoded:
                return bytes.fromhex(encoded["$bytes"])
            if "$udt" in encoded:
                opaque = self._catalog.opaque_type(encoded["$udt"])
                return opaque.deserialize(bytes.fromhex(encoded["data"]))
            raise StorageError(f"unknown tagged value {encoded!r}")
        return encoded

    def encode_row(self, row: tuple) -> str:
        return json.dumps([self.encode_value(value) for value in row],
                          separators=(",", ":"))

    def decode_row(self, line: str) -> tuple:
        return tuple(self.decode_value(item) for item in json.loads(line))


class SpillManager:
    """Spill policy: cache to charge (None: unbounded), codec, block height."""

    def __init__(self, codec: ValueCodec, cache=None,
                 block_rows: int = PAGE_ROWS) -> None:
        self.codec = codec
        self.cache = (cache if cache and cache.budget_bytes is not None
                      else None)
        self.block_rows = block_rows
        self._names = itertools.count(1)

    def indexed_run(self) -> "IndexedRun":
        return IndexedRun(self.codec, self.cache)

    def disk_run(self) -> "BlockRun":
        """A write-through run: rows destined for disk (sorted external-
        merge runs, aggregate spill partitions — what the operator could
        not hold)."""
        return BlockRun(self.codec, self.block_rows,
                        f"spill run {next(self._names)}")


def cut(columns: Sequence[Sequence[Any]], rows: int,
        stop: "int | None" = None) -> Iterator["list[list]"]:
    """*columns* (up to row *stop*) as blocks of at most *rows* rows."""
    return ([column[at:at + rows] for column in columns]
            for at in range(0, len(columns[0]) if stop is None else stop,
                            rows))


class BlockRun:
    """Columns appended in any number of pieces, on disk as blocks of
    *block_rows* rows, read back block by block in the order written."""

    def __init__(self, codec: ValueCodec, block_rows: int, name: str) -> None:
        self._codec = codec
        self._block_rows = block_rows
        self.name = name
        self._held: "list[list]" = []  # rows not yet a full block
        self._file = None
        self._blocks = 0
        self._count = 0
        self.bytes = 0  # encoded, written so far

    def __len__(self) -> int:
        return self._count

    def extend(self, columns: Sequence[Sequence[Any]]) -> None:
        """Append rows given as equal-length *columns* (at least one)."""
        held = self._held = self._held or [[] for _ in columns]
        for kept, column in zip(held, columns):
            kept.extend(column)
        self._count += len(columns[0])
        full = len(held[0]) - len(held[0]) % self._block_rows
        for block in cut(held, self._block_rows, full):
            self._write(block)
        if full:
            self._held = [kept[full:] for kept in held]

    def _write(self, columns: "list[list]") -> None:
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="repro-run-")
            count("executor", "spill_runs")
        pages = [encode_page(column, None, self._codec) for column in columns]
        size = self._file.write(b"".join(
            part for page in pages
            for part in (len(page).to_bytes(4, "little"), page)))
        self._blocks += 1
        self.bytes += size
        count("executor", "spill_rows", len(columns[0]))
        count("executor", "spill_bytes", size)

    def blocks(self) -> Iterator["list[list]"]:
        """Every block, as its list of decoded columns (the rows still
        held are written out first, as a last, shorter block)."""
        if self._held and self._held[0]:
            self._write(self._held)
            self._held = [[] for _ in self._held]
        if self._file is None:
            return
        self._file.seek(0)
        rows = 0
        for block in range(self._blocks):
            columns = [self._page(f"{self.name} block {block} column {at}")
                       for at in range(len(self._held))]
            rows += len(columns[0])
            yield columns
        if rows != self._count:
            raise StorageError(
                f"{self.name} read back {rows} rows of the {self._count} "
                f"appended", kind="malformed")

    def _page(self, page_id: str) -> list:
        size = int.from_bytes(self._file.read(4), "little")
        data = self._file.read(size)
        if len(data) < max(size, 1):  # no page is empty: nor is the file over
            raise StorageError(f"{page_id}: the run ends before it does",
                               kind="malformed")
        return decode_page(data, self._codec, page_id=page_id)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._held, self._blocks, self._count = [], 0, 0


class IndexedRun:
    """Rows addressable by ordinal, one codec line each (row framing:
    the join fetches single rows); cold rows are read back by offset.
    Held while *cache* (None: no bound) grants them, then all on disk."""

    def __init__(self, codec: ValueCodec, cache=None) -> None:
        self._codec = codec
        self._cache = cache
        self._rows: "list[tuple] | None" = []
        self._file = None
        self._offsets: "list[int]" = []
        self._tail = self._count = self._charged = 0

    def __len__(self) -> int:
        return self._count

    def _write(self, rows: Sequence[tuple]) -> None:
        start = self._tail
        for row in rows:
            payload = self._codec.encode_row(row).encode("utf-8") + b"\n"
            self._offsets.append(self._tail)
            self._file.write(payload)
            self._tail += len(payload)
        count("executor", "spill_rows", len(rows))
        count("executor", "spill_bytes", self._tail - start)

    def extend(self, rows: Sequence[tuple], columns: Sequence) -> range:
        """Store *rows*, the cells of *columns* (what is charged); returns
        their ordinals."""
        start, self._count = self._count, self._count + len(rows)
        held = self._rows is not None
        size = footprint(columns) if held and self._cache else 0
        if held and (not size or self._cache.charge(size)):
            self._charged += size
            self._rows.extend(rows)
        else:
            if held:  # refused: what is held goes to disk, and the rest
                self._file = tempfile.TemporaryFile(prefix="repro-irun-")
                count("executor", "spill_runs")
                rows, self._rows = [*self._rows, *rows], None
                self._release()
            self._write(rows)
        return range(start, self._count)

    def _release(self) -> None:
        if self._charged:
            self._cache.release(self._charged)
        self._charged = 0

    def __getitem__(self, ordinal: int) -> tuple:
        if self._rows is not None:
            return self._rows[ordinal]
        self._file.seek(self._offsets[ordinal])
        return self._codec.decode_row(
            self._file.readline().decode("utf-8"))

    def close(self) -> None:
        self._release()
        if self._file is not None:
            self._file.close()
            self._file = None
        self._rows = []
        self._offsets = []
        self._tail = 0
        self._count = 0
