"""Tests for the source wrappers: format text → GDT-bearing records."""

import pytest

from repro.core.types import DnaSequence, Interval
from repro.errors import SettingError, WrapperError
from repro.etl.wrappers import (
    AceWrapper,
    EmblWrapper,
    FastaWrapper,
    GenBankWrapper,
    RelationalWrapper,
    SwissProtWrapper,
    parse_location,
    wrapper_for,
    write_fasta,
)
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    TrEmblRepository,
    Universe,
)


@pytest.fixture(scope="module")
def universe():
    return Universe(seed=33, size=30)


class TestParseLocation:
    def test_simple_span(self):
        assert parse_location("1..456") == (Interval(0, 456),)

    def test_join(self):
        assert parse_location("join(1..120,181..456)") == (
            Interval(0, 120), Interval(180, 456),
        )

    def test_rejects_complement(self):
        with pytest.raises(WrapperError):
            parse_location("complement(1..10)")

    def test_rejects_empty(self):
        with pytest.raises(WrapperError):
            parse_location("somewhere")

    def test_rejects_descending(self):
        with pytest.raises(WrapperError):
            parse_location("join(100..200,1..50)")


class TestRoundTrips:
    """Every repository's rendering must be parseable by its wrapper,
    recovering the repository's internal record state."""

    @pytest.mark.parametrize("repo_class", [
        GenBankRepository, EmblRepository, AceRepository,
        RelationalRepository,
    ])
    def test_dna_sources_roundtrip(self, universe, repo_class):
        repository = repo_class(universe, error_rate=0.0)
        wrapper = wrapper_for(repository.name)
        for accession in repository.accessions()[:5]:
            state = repository.record_state(accession)
            parsed = wrapper.parse_record(repository.render_record(state))
            assert parsed.accession == state.accession
            assert parsed.name == state.name
            assert parsed.organism == state.organism
            assert str(parsed.dna) == state.sequence_text
            assert tuple((e.start, e.end) for e in parsed.exons) \
                == state.exons

    def test_swissprot_roundtrip(self, universe):
        repository = SwissProtRepository(universe, error_rate=0.0)
        wrapper = wrapper_for(repository.name)
        accession = repository.accessions()[0]
        state = repository.record_state(accession)
        parsed = wrapper.parse_record(repository.render_record(state))
        assert parsed.accession == state.accession
        assert str(parsed.protein) == state.sequence_text
        assert parsed.name == state.name

    @pytest.mark.parametrize("repo_class", [
        GenBankRepository, EmblRepository, SwissProtRepository,
        AceRepository, RelationalRepository,
    ])
    def test_snapshot_parses_completely(self, universe, repo_class):
        repository = repo_class(universe)
        wrapper = wrapper_for(repository.name)
        records = wrapper.parse_snapshot(repository.snapshot())
        assert len(records) == len(repository)
        assert {r.accession for r in records} \
            == set(repository.accessions())

    def test_version_carried(self, universe):
        repository = EmblRepository(universe, error_rate=0.0)
        repository.advance(20)
        wrapper = wrapper_for("EMBL")
        for accession in repository.accessions():
            state = repository.record_state(accession)
            parsed = wrapper.parse_record(repository.render_record(state))
            assert parsed.version == state.version


class TestErrorHandling:
    def test_genbank_rejects_garbage(self):
        with pytest.raises(WrapperError):
            GenBankWrapper().parse_record("not a record")

    def test_genbank_requires_origin(self):
        text = "LOCUS x\nDEFINITION d.\nACCESSION GA1\nVERSION GA1.1\n//\n"
        with pytest.raises(WrapperError):
            GenBankWrapper().parse_record(text)

    def test_embl_rejects_garbage(self):
        with pytest.raises(WrapperError):
            EmblWrapper().parse_record("LOCUS x")

    def test_swissprot_requires_sq(self):
        text = "ID   X\nAC   GA1;\nDE   RecName: Full=x;\nOS   E.\n//\n"
        with pytest.raises(WrapperError):
            SwissProtWrapper().parse_record(text)

    def test_ace_requires_accession(self):
        with pytest.raises(WrapperError):
            AceWrapper().parse_record('Gene : "g"\nDNA\t"AAAA"\n')

    def test_ace_rejects_unknown_class(self):
        with pytest.raises(WrapperError):
            AceWrapper().parse_record('Protein : "p"\nAccession\t"GA1"\n')

    def test_relational_column_count(self):
        with pytest.raises(WrapperError):
            RelationalWrapper().parse_record("a,b,c\n")

    def test_unknown_source_name(self):
        with pytest.raises(SettingError, match="MysteryDB") as caught:
            wrapper_for("MysteryDB")
        assert (caught.value.what, caught.value.where, caught.value.value) \
            == ("source", "wrapper_for", "MysteryDB")

    def test_each_record_names_the_source_its_wrapper_was_made_for(
            self, universe):
        """SwissProt and TrEMBL share one format, not one source."""
        for repository in (SwissProtRepository(universe),
                           TrEmblRepository(universe)):
            records = wrapper_for(repository.name).parse_snapshot(
                repository.snapshot())
            assert {record.source for record in records} \
                == {repository.name}


class TestFasta:
    def test_roundtrip(self):
        text = write_fasta([
            ("S1", "first sequence", "ATGGCC"),
            ("S2", "", "TTTT"),
        ])
        records = FastaWrapper().parse_snapshot(text)
        assert len(records) == 2
        assert records[0].accession == "S1"
        assert records[0].description == "first sequence"
        assert records[0].dna == DnaSequence("ATGGCC")
        assert records[1].description is None

    def test_long_sequences_wrapped(self):
        text = write_fasta([("S1", "", "A" * 200)])
        assert max(len(line) for line in text.splitlines()) <= 70
        parsed = FastaWrapper().parse_record(text)
        assert len(parsed.dna) == 200

    def test_protein_mode(self):
        wrapper = FastaWrapper(molecule="protein")
        record = wrapper.parse_record(">P1 a protein\nMKLV\n")
        assert record.protein is not None
        assert str(record.protein) == "MKLV"

    def test_bad_molecule(self):
        with pytest.raises(WrapperError):
            FastaWrapper(molecule="carbohydrate")

    def test_missing_header(self):
        with pytest.raises(WrapperError):
            FastaWrapper().parse_record("ATGC\n")
