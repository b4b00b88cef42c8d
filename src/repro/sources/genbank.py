"""A GenBank-style flat-file repository (non-queryable, snapshot dumps)."""

from __future__ import annotations

from repro.sources.base import Capabilities, Repository, SourceRecord


def _location(exons: tuple[tuple[int, int], ...], length: int) -> str:
    """1-based inclusive GenBank location text for the CDS."""
    if not exons:
        return f"1..{length}"
    if len(exons) == 1:
        start, end = exons[0]
        return f"{start + 1}..{end}"
    spans = ",".join(f"{start + 1}..{end}" for start, end in exons)
    return f"join({spans})"


class GenBankRepository(Repository):
    """The GenBank archetype: flat files, periodic snapshot releases.

    GenBank in the paper's era was the canonical *non-queryable* source:
    you get full flat-file dumps and diff them yourself (Figure 2's
    bottom row).
    """

    representation = "flat"

    def __init__(self, universe, coverage: float = 0.7, seed: int = 1,
                 error_rate: float = 0.4,
                 capabilities: Capabilities | None = None) -> None:
        super().__init__(
            "GenBank", universe, coverage, seed, error_rate,
            capabilities or Capabilities(),  # snapshots only
        )

    def render_record(self, record: SourceRecord) -> str:
        length = len(record.sequence_text)
        lines = [
            f"LOCUS       {record.accession:<12}{length:>8} bp    DNA"
            f"     linear   SYN 01-JAN-2003",
            f"DEFINITION  {record.description}.",
            f"ACCESSION   {record.accession}",
            f"VERSION     {record.accession}.{record.version}",
            f"SOURCE      {record.organism}",
            f"  ORGANISM  {record.organism}",
            "FEATURES             Location/Qualifiers",
            f"     source          1..{length}",
            f'                     /organism="{record.organism}"',
            f"     gene            1..{length}",
            f'                     /gene="{record.name}"',
            f"     CDS             {_location(record.exons, length)}",
            f'                     /gene="{record.name}"',
            f'                     /product="{record.name} protein"',
            "ORIGIN",
            self.sequence_block(record.sequence_text.lower(),
                                "{start:>9} {groups}"),
            "//",
        ]
        return "\n".join(lines) + "\n"
