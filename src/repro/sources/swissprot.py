"""A SwissProt-style protein repository (active: push notifications).

The paper singles SwissProt out twice: as a curated protein databank
refreshed quarterly yet heavily used, and as a source "now beginning to
offer push capabilities, which will notify requesting users when relevant
sequence entries have been made" — so this archetype is the *active*
column of Figure 2.
"""

from __future__ import annotations

from repro.sources.base import Capabilities, Repository, SourceRecord


def _entry_name(record: SourceRecord) -> str:
    organism_tag = "".join(
        word[:3].upper() for word in record.organism.split()[:2]
    )
    return f"{record.name.upper()}_{organism_tag}"


class SwissProtRepository(Repository):
    """The SwissProt archetype: curated protein entries, push-capable."""

    representation = "flat"
    stores_protein = True

    def __init__(self, universe, coverage: float = 0.5, seed: int = 3,
                 error_rate: float = 0.05,
                 capabilities: Capabilities | None = None) -> None:
        # Curated: far lower error rate than the nucleotide archives.
        super().__init__(
            "SwissProt", universe, coverage, seed, error_rate,
            capabilities or Capabilities(queryable=True, active=True),
        )

    def render_record(self, record: SourceRecord) -> str:
        length = len(record.sequence_text)
        lines = [
            f"ID   {_entry_name(record):<24}Reviewed;{length:>12} AA.",
            f"AC   {record.accession};",
            f"DE   RecName: Full={record.name} protein;",
            f"GN   Name={record.name};",
            f"OS   {record.organism}.",
            f"SQ   SEQUENCE   {length} AA;",
            self.sequence_block(record.sequence_text, "     {groups}"),
            "//",
        ]
        return "\n".join(lines) + "\n"
