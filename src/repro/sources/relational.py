"""A relational repository (logged + trigger-capable).

Figure 2's left column: sources managed by a real DBMS, where change
detection is easy — database triggers fire (active) or the transaction
log is inspectable (logged).  Snapshots are CSV dumps; queries return
rows.
"""

from __future__ import annotations

import csv
import io

from repro.errors import SourceError
from repro.sources.base import Capabilities, Repository, SourceRecord

_COLUMNS = ("accession", "version", "name", "organism", "description",
            "sequence", "exons")


def _exons_text(exons: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{start}-{end}" for start, end in exons)


class RelationalRepository(Repository):
    """A trigger- and log-capable relational source."""

    representation = "relational"

    def __init__(self, universe, coverage: float = 0.5, seed: int = 5,
                 error_rate: float = 0.1,
                 capabilities: Capabilities | None = None) -> None:
        super().__init__(
            "RelationalDB", universe, coverage, seed, error_rate,
            capabilities or Capabilities(queryable=True, logged=True,
                                         active=True),
        )

    def row_of(self, record: SourceRecord) -> tuple:
        return (
            record.accession, record.version, record.name,
            record.organism, record.description, record.sequence_text,
            _exons_text(record.exons),
        )

    def query_rows(self) -> list[tuple]:
        """The relational access path: all rows, ordered by accession."""
        if not self.capabilities.queryable:
            raise SourceError(f"{self.name} is not queryable")
        return [self.row_of(self._records[a])
                for a in sorted(self._records)]

    def render_record(self, record: SourceRecord) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(self.row_of(record))
        return buffer.getvalue()

    def render_snapshot(self, records) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(_COLUMNS)
        return buffer.getvalue() + super().render_snapshot(records)
