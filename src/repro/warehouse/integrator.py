"""The warehouse integrator: reconciliation of multi-source records.

"Merging related data items and removing inconsistencies before the data
is loaded into the Unifying Database.  This is done by the warehouse
integrator." (section 5.1)

Reconciliation policy:

- records about the same accession from different sources are merged
  field by field with a **reliability-weighted vote** (SwissProt, being
  curated, outweighs the bulk nucleotide archives — exactly the quality
  difference the paper describes);
- when sources disagree and neither can be ruled out, the winning value
  goes into the main column **and** the full set of readings is kept as
  an :class:`~repro.core.types.Alternatives` conflict row — requirement
  C9's "access to both alternatives should be given";
- per source, only the latest version of a record participates
  (duplicate removal).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.types import (
    Alternatives,
    DnaSequence,
    Gene,
    Interval,
    ProteinSequence,
    Uncertain,
)
from repro.errors import IntegrationError
from repro.etl.wrappers import ParsedRecord

#: Default source-reliability weights (the curation hierarchy of §5.2).
DEFAULT_RELIABILITY: Mapping[str, float] = {
    "SwissProt": 0.90,
    "TrEMBL": 0.45,  # computer-translated, uncurated
    "EMBL": 0.60,
    "RelationalDB": 0.60,
    "GenBank": 0.50,
    "AceDB": 0.45,
}
_FALLBACK_RELIABILITY = 0.40


@dataclass
class ConsolidatedRecord:
    """The reconciled, warehouse-ready view of one accession."""

    accession: str
    name: str | None = None
    organism: str | None = None
    description: str | None = None
    gene: Gene | None = None
    dna: DnaSequence | None = None
    protein: ProteinSequence | None = None
    source_count: int = 0
    #: (field name, all conflicting readings) pairs, for the conflicts table.
    conflicts: list[tuple[str, Alternatives]] = field(default_factory=list)


class Integrator:
    """Reliability-weighted reconciliation of each source's
    :class:`~repro.etl.wrappers.ParsedRecord` of one accession."""

    def __init__(self,
                 reliability: Mapping[str, float] | None = None) -> None:
        self.reliability = dict(DEFAULT_RELIABILITY)
        if reliability:
            self.reliability.update(reliability)

    def _weight(self, source: str) -> float:
        return self.reliability.get(source, _FALLBACK_RELIABILITY)

    @staticmethod
    def _group_key(value: Any) -> tuple[str, str]:
        """A canonical, non-truncating identity key for vote grouping.

        ``repr`` is NOT usable here: packed sequences abbreviate their
        repr, which would let long conflicting sequences collapse into
        one voting group.
        """
        return (type(value).__name__, str(value))

    def _vote(
        self, readings: Sequence[tuple[str, Any]]
    ) -> tuple[Any, Alternatives | None]:
        """Weighted vote over (source, value) pairs.

        Returns (winner, alternatives-or-None); alternatives are present
        only when distinct values disagree.
        """
        present = [(source, value) for source, value in readings
                   if value is not None]
        if not present:
            return None, None
        groups: dict[tuple[str, str], list[tuple[str, Any]]] = defaultdict(list)
        for source, value in present:
            groups[self._group_key(value)].append((source, value))
        if len(groups) == 1:
            return present[0][1], None

        scored = []
        for members in groups.values():
            weight = sum(self._weight(source) for source, _ in members)
            sources = ";".join(sorted(source for source, _ in members))
            scored.append((weight, members[0][1], sources))
        scored.sort(key=lambda entry: (-entry[0], entry[2]))
        total = sum(weight for weight, _, _ in scored)
        alternatives = Alternatives(
            Uncertain(value, weight / total, sources)
            for weight, value, sources in scored
        )
        return scored[0][1], alternatives

    def _latest_per_source(
        self, records: Sequence[ParsedRecord]
    ) -> list[ParsedRecord]:
        latest: dict[str, ParsedRecord] = {}
        for record in records:
            existing = latest.get(record.source)
            if existing is None or record.version >= existing.version:
                latest[record.source] = record
        return [latest[source] for source in sorted(latest)]

    def consolidate(
        self, records: Sequence[ParsedRecord]
    ) -> ConsolidatedRecord:
        """Merge every source's view of one accession."""
        if not records:
            raise IntegrationError("nothing to consolidate")
        accessions = {record.accession for record in records}
        if len(accessions) != 1:
            raise IntegrationError(
                f"consolidate() got mixed accessions {sorted(accessions)}"
            )
        records = self._latest_per_source(records)
        accession = records[0].accession
        result = ConsolidatedRecord(accession=accession,
                                    source_count=len(records))

        # The conflicts table files a DNA disagreement as "sequence".
        for field_name in ("name", "organism", "description", "dna",
                           "protein"):
            winner, alternatives = self._vote(
                [(r.source, getattr(r, field_name)) for r in records])
            setattr(result, field_name, winner)
            if alternatives is not None:
                result.conflicts.append((
                    "sequence" if field_name == "dna" else field_name,
                    alternatives))

        if result.dna is not None:
            result.gene = Gene(
                name=result.name or accession,
                sequence=result.dna,
                exons=self._exons_for(records, result.dna),
                organism=result.organism,
                accession=accession,
            )
        return result

    def _exons_for(
        self, records: Sequence[ParsedRecord], dna: DnaSequence
    ) -> tuple[Interval, ...]:
        """Exon structure from the most reliable source agreeing with the
        chosen sequence (falling back to any in-bounds structure)."""
        candidates = sorted(
            (record for record in records if record.exons),
            key=lambda record: -self._weight(record.source),
        )
        for record in candidates:
            if record.dna == dna and record.exons[-1].end <= len(dna):
                return record.exons
        for record in candidates:
            if record.exons[-1].end <= len(dna):
                return record.exons
        return ()
