"""Tests for reliability-weighted reconciliation (C9/C10)."""

import pytest

from repro.core.types import DnaSequence, Interval, ProteinSequence
from repro.errors import IntegrationError
from repro.etl.wrappers import ParsedRecord
from repro.warehouse.integrator import Integrator


def staged(source, accession="GA1", version=1, **kwargs):
    return ParsedRecord(source=source, accession=accession,
                        version=version, **kwargs)


@pytest.fixture
def integrator():
    return Integrator()


class TestVoting:
    def test_single_source_passthrough(self, integrator):
        record = staged("GenBank", name="lacZ", organism="E. coli",
                        dna=DnaSequence("ATGC"))
        consolidated = integrator.consolidate([record])
        assert consolidated.name == "lacZ"
        assert consolidated.dna == DnaSequence("ATGC")
        assert consolidated.conflicts == []
        assert consolidated.source_count == 1

    def test_agreement_has_no_conflict(self, integrator):
        records = [
            staged("GenBank", dna=DnaSequence("ATGC"), name="g"),
            staged("EMBL", dna=DnaSequence("ATGC"), name="g"),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.conflicts == []
        assert consolidated.source_count == 2

    def test_disagreement_recorded_as_alternatives(self, integrator):
        records = [
            staged("GenBank", dna=DnaSequence("ATGC")),
            staged("EMBL", dna=DnaSequence("ATGA")),
        ]
        consolidated = integrator.consolidate(records)
        fields = dict(consolidated.conflicts)
        assert "sequence" in fields
        readings = fields["sequence"]
        assert len(readings) == 2
        assert set(readings.values()) == {
            DnaSequence("ATGC"), DnaSequence("ATGA"),
        }

    def test_reliability_weight_decides(self, integrator):
        # EMBL (0.6) should beat GenBank (0.5) on sequence conflicts.
        records = [
            staged("GenBank", dna=DnaSequence("AAAA")),
            staged("EMBL", dna=DnaSequence("CCCC")),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.dna == DnaSequence("CCCC")

    def test_majority_of_lower_weights_beats_one_higher(self, integrator):
        # GenBank + AceDB (0.5 + 0.45) outweigh EMBL (0.6).
        records = [
            staged("GenBank", dna=DnaSequence("AAAA")),
            staged("AceDB", dna=DnaSequence("AAAA")),
            staged("EMBL", dna=DnaSequence("CCCC")),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.dna == DnaSequence("AAAA")

    def test_custom_reliability(self):
        integrator = Integrator({"GenBank": 0.99})
        records = [
            staged("GenBank", dna=DnaSequence("AAAA")),
            staged("EMBL", dna=DnaSequence("CCCC")),
        ]
        assert integrator.consolidate(records).dna == DnaSequence("AAAA")

    def test_conflict_confidences_normalized(self, integrator):
        records = [
            staged("GenBank", organism="E. coli"),
            staged("EMBL", organism="E.coli K-12"),
        ]
        consolidated = integrator.consolidate(records)
        readings = dict(consolidated.conflicts)["organism"]
        total = sum(option.confidence for option in readings)
        assert total == pytest.approx(1.0)

    def test_long_sequences_with_shared_prefix_stay_distinct(
        self, integrator
    ):
        # Regression: DnaSequence.__repr__ truncates at 40 characters;
        # grouping by repr once collapsed long conflicting sequences
        # that share a prefix into a single voting group.
        prefix = "ACGT" * 20  # 80 bp shared prefix
        records = [
            staged("GenBank", dna=DnaSequence(prefix + "AAAA")),
            staged("EMBL", dna=DnaSequence(prefix + "CCCC")),
        ]
        consolidated = integrator.consolidate(records)
        fields = dict(consolidated.conflicts)
        assert "sequence" in fields
        assert len(fields["sequence"]) == 2
        assert consolidated.dna == DnaSequence(prefix + "CCCC")  # EMBL wins

    def test_missing_values_do_not_conflict(self, integrator):
        records = [
            staged("GenBank", name="lacZ"),
            staged("EMBL", name=None),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.name == "lacZ"
        assert consolidated.conflicts == []


class TestVersionsAndProteins:
    def test_latest_version_per_source_wins(self, integrator):
        records = [
            staged("GenBank", version=1, dna=DnaSequence("AAAA")),
            staged("GenBank", version=3, dna=DnaSequence("CCCC")),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.dna == DnaSequence("CCCC")
        assert consolidated.source_count == 1
        assert consolidated.conflicts == []

    def test_protein_from_swissprot(self, integrator):
        records = [
            staged("GenBank", dna=DnaSequence("ATGAAATAA"), name="g"),
            staged("SwissProt", protein=ProteinSequence("MK"), name="g"),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.protein == ProteinSequence("MK")
        assert consolidated.dna == DnaSequence("ATGAAATAA")

    def test_gene_built_with_exons(self, integrator):
        records = [
            staged("EMBL", dna=DnaSequence("ATGAAATAAGGG"),
                   exons=(Interval(0, 9),), name="g"),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.gene is not None
        assert consolidated.gene.exons == (Interval(0, 9),)

    def test_exons_follow_chosen_sequence(self, integrator):
        # EMBL wins the sequence; its exon structure must be used even
        # though GenBank also offers one.
        records = [
            staged("GenBank", dna=DnaSequence("A" * 20),
                   exons=(Interval(0, 20),)),
            staged("EMBL", dna=DnaSequence("C" * 10),
                   exons=(Interval(0, 10),)),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.dna == DnaSequence("C" * 10)
        assert consolidated.gene.exons == (Interval(0, 10),)

    def test_out_of_bounds_exons_dropped(self, integrator):
        records = [
            staged("EMBL", dna=DnaSequence("ATGC"),
                   exons=(Interval(0, 400),)),
        ]
        consolidated = integrator.consolidate(records)
        assert consolidated.gene.exons == (Interval(0, 4),)  # whole span


class TestValidation:
    def test_empty_input_rejected(self, integrator):
        with pytest.raises(IntegrationError):
            integrator.consolidate([])

    def test_mixed_accessions_rejected(self, integrator):
        with pytest.raises(IntegrationError):
            integrator.consolidate([
                staged("GenBank", accession="GA1"),
                staged("EMBL", accession="GA2"),
            ])
