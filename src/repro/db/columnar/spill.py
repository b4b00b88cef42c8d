"""Bounded-memory row runs for the streaming SQL executor.

Every pipeline-breaking operator (ORDER BY, GROUP BY, the join build
sides) used to call ``list(child.execute(...))`` — unbounded
materialization.  The runs here are the budgeted replacement: rows
accumulate in memory until the operator's share of the engine's
``memory_budget`` is exhausted, then the whole run flushes to an
anonymous temporary file and further appends go straight to disk.

Two shapes:

- :class:`RowRun` — sequential, re-iterable (external-sort runs,
  spilled aggregate partitions).
- :class:`IndexedRun` — offset-addressed random access (a join's
  build rows, referenced by ordinal from the hash buckets or walked in
  order by the nested loop).

Rows cross the memory/disk boundary as JSON lines through
:class:`ValueCodec`, the same ``$bytes`` / ``$udt`` tagging the WAL
uses, so any value the engine can persist can also spill.  Spill
volume is visible as ``executor_spill_rows`` / ``executor_spill_bytes``
/ ``executor_spill_runs`` counters.
"""

from __future__ import annotations

import json
import tempfile
from typing import Any, Iterable, Iterator

from repro.db.values import NULL
from repro.errors import StorageError
from repro.obs.metrics import count

#: In-memory rows an operator may hold before spilling when the engine
#: has a finite budget but the estimated per-row size is still unknown.
DEFAULT_RUN_ROWS = 1024


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
    """Hands operators their spill policy: budget share and codec."""

    def __init__(self, codec: ValueCodec,
                 budget_bytes: "int | None" = None) -> None:
        self.codec = codec
        self.budget_bytes = budget_bytes

    def run_capacity(self) -> "int | None":
        """Rows an operator may buffer before spilling (None = no cap)."""
        if self.budget_bytes is None:
            return None
        return max(1, min(DEFAULT_RUN_ROWS, self.budget_bytes // 64))

    def indexed_run(self) -> "IndexedRun":
        return IndexedRun(self.codec, self.run_capacity())

    def disk_run(self) -> "RowRun":
        """A write-through run: rows destined for disk regardless of
        budget share (sorted external-merge runs, aggregate spill
        partitions — their contents were already counted against the
        operator's in-memory allowance)."""
        return RowRun(self.codec, 0)


class RowRun:
    """A re-iterable sequence of rows that spills past *capacity* rows."""

    def __init__(self, codec: ValueCodec,
                 capacity: "int | None" = None) -> None:
        self._codec = codec
        self._capacity = capacity
        self._rows: "list[tuple] | None" = []
        self._file = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def spilled(self) -> bool:
        return self._file is not None

    def _flush_to_disk(self) -> None:
        self._file = tempfile.TemporaryFile(
            mode="w+", encoding="utf-8", prefix="repro-run-")
        spilled_bytes = 0
        for row in self._rows:
            line = self._codec.encode_row(row)
            self._file.write(line + "\n")
            spilled_bytes += len(line) + 1
        self._rows = None
        count("executor", "spill_runs")
        count("executor", "spill_rows", self._count)
        count("executor", "spill_bytes", spilled_bytes)

    def append(self, row: tuple) -> None:
        if self._rows is not None:
            self._rows.append(row)
            self._count += 1
            if (self._capacity is not None
                    and len(self._rows) > self._capacity):
                self._flush_to_disk()
            return
        line = self._codec.encode_row(row)
        self._file.write(line + "\n")
        self._count += 1
        count("executor", "spill_rows")
        count("executor", "spill_bytes", len(line) + 1)

    def extend(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.append(row)

    def __iter__(self) -> Iterator[tuple]:
        if self._rows is not None:
            yield from self._rows
            return
        self._file.seek(0)
        for line in self._file:
            yield self._codec.decode_row(line)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._rows = []
        self._count = 0


class IndexedRun:
    """Rows addressable by ordinal; cold rows are read back by offset."""

    def __init__(self, codec: ValueCodec,
                 capacity: "int | None" = None) -> None:
        self._codec = codec
        self._capacity = capacity
        self._rows: "list[tuple] | None" = []
        self._file = None
        self._offsets: "list[int]" = []
        self._tail = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def spilled(self) -> bool:
        return self._file is not None

    def _flush_to_disk(self) -> None:
        self._file = tempfile.TemporaryFile(
            mode="w+b", prefix="repro-irun-")
        spilled_bytes = 0
        for row in self._rows:
            payload = self._codec.encode_row(row).encode("utf-8") + b"\n"
            self._offsets.append(self._tail)
            self._file.write(payload)
            self._tail += len(payload)
            spilled_bytes += len(payload)
        self._rows = None
        count("executor", "spill_runs")
        count("executor", "spill_rows", self._count)
        count("executor", "spill_bytes", spilled_bytes)

    def append(self, row: tuple) -> int:
        """Store *row*; returns its ordinal."""
        ordinal = self._count
        if self._rows is not None:
            self._rows.append(row)
            self._count += 1
            if (self._capacity is not None
                    and len(self._rows) > self._capacity):
                self._flush_to_disk()
            return ordinal
        payload = self._codec.encode_row(row).encode("utf-8") + b"\n"
        self._offsets.append(self._tail)
        self._file.write(payload)
        self._tail += len(payload)
        self._count += 1
        count("executor", "spill_rows")
        count("executor", "spill_bytes", len(payload))
        return ordinal

    def __getitem__(self, ordinal: int) -> tuple:
        if self._rows is not None:
            return self._rows[ordinal]
        self._file.seek(self._offsets[ordinal])
        return self._codec.decode_row(
            self._file.readline().decode("utf-8"))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._rows = []
        self._offsets = []
        self._tail = 0
        self._count = 0
