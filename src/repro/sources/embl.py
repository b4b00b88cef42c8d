"""An EMBL-style flat-file repository (queryable)."""

from __future__ import annotations

from repro.sources.base import Capabilities, Repository, SourceRecord


def _location(exons: tuple[tuple[int, int], ...], length: int) -> str:
    if not exons:
        return f"1..{length}"
    if len(exons) == 1:
        start, end = exons[0]
        return f"{start + 1}..{end}"
    return "join(" + ",".join(
        f"{start + 1}..{end}" for start, end in exons
    ) + ")"


class EmblRepository(Repository):
    """The EMBL archetype: flat files with a record-level query API."""

    representation = "flat"

    def __init__(self, universe, coverage: float = 0.6, seed: int = 2,
                 error_rate: float = 0.3,
                 capabilities: Capabilities | None = None) -> None:
        super().__init__(
            "EMBL", universe, coverage, seed, error_rate,
            capabilities or Capabilities(queryable=True),
        )

    def render_record(self, record: SourceRecord) -> str:
        length = len(record.sequence_text)
        lines = [
            f"ID   {record.accession}; SV {record.version}; linear; "
            f"genomic DNA; STD; SYN; {length} BP.",
            f"AC   {record.accession};",
            f"DE   {record.description}.",
            f"OS   {record.organism}",
            f"FT   gene            1..{length}",
            f'FT                   /gene="{record.name}"',
            f"FT   CDS             {_location(record.exons, length)}",
            f'FT                   /gene="{record.name}"',
            f"SQ   Sequence {length} BP;",
            self.sequence_block(record.sequence_text.lower(),
                                "     {groups:<66}{end:>9}"),
            "//",
        ]
        return "\n".join(lines) + "\n"
