"""Tests for the GenomicsAdapter: UDTs, UDFs, and the paper's queries."""

import pytest

from repro.adapter import GenomicsAdapter, install_genomics
from repro.adapter.serializers import (
    deserialize_alternatives,
    deserialize_gene,
    deserialize_mrna,
    deserialize_protein,
    deserialize_transcript,
    serialize_alternatives,
    serialize_gene,
    serialize_mrna,
    serialize_protein,
    serialize_transcript,
)
from repro.core.ops import splice, transcribe, express
from repro.core.types import (
    Alternatives,
    AnnotationSet,
    DnaSequence,
    Feature,
    Gene,
    Interval,
    Location,
    Uncertain,
)
from repro.db import Database
from repro.errors import CatalogError

GENE_TEXT = "ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG"


@pytest.fixture
def demo_gene():
    return Gene(
        name="demo",
        sequence=DnaSequence(GENE_TEXT),
        exons=(Interval(0, 12), Interval(18, 39)),
        organism="E. coli",
        accession="X00001",
        annotations=AnnotationSet([
            Feature("CDS", Location.simple(0, 39), {"gene": "demo"}),
        ]),
    )


@pytest.fixture
def db():
    database = Database()
    install_genomics(database)
    return database


class TestSerializers:
    def test_gene_roundtrip(self, demo_gene):
        restored = deserialize_gene(serialize_gene(demo_gene))
        assert restored.name == demo_gene.name
        assert restored.sequence == demo_gene.sequence
        assert restored.exons == demo_gene.exons
        assert restored.organism == "E. coli"
        assert len(restored.annotations) == 1
        assert restored.annotations.of_kind("CDS")[0].qualifier("gene") \
            == "demo"

    def test_transcript_roundtrip(self, demo_gene):
        transcript = transcribe(demo_gene)
        restored = deserialize_transcript(serialize_transcript(transcript))
        assert restored.rna == transcript.rna
        assert restored.exons == transcript.exons

    def test_mrna_roundtrip(self, demo_gene):
        mrna = splice(transcribe(demo_gene))
        restored = deserialize_mrna(serialize_mrna(mrna))
        assert restored.rna == mrna.rna
        assert restored.cds == mrna.cds

    def test_protein_roundtrip(self, demo_gene):
        protein = express(demo_gene)
        restored = deserialize_protein(serialize_protein(protein))
        assert restored.sequence == protein.sequence
        assert restored.gene_name == "demo"

    def test_alternatives_roundtrip(self):
        alternatives = Alternatives([
            Uncertain(DnaSequence("ATGA"), 0.7, "GenBank"),
            Uncertain(DnaSequence("ATGC"), 0.3, "EMBL"),
        ])
        restored = deserialize_alternatives(
            serialize_alternatives(alternatives)
        )
        assert restored == alternatives

    def test_wrong_kind_rejected(self, demo_gene):
        data = serialize_gene(demo_gene)
        with pytest.raises(Exception):
            deserialize_protein(data)


class TestInstall:
    def test_udts_registered(self, db):
        for name in ("DNA", "RNA", "PROTEIN_SEQ", "GENE", "MRNA",
                     "PROTEIN", "ALTERNATIVES"):
            assert db.catalog.opaque_type(name).name == name

    def test_double_install_rejected(self, db):
        with pytest.raises(CatalogError):
            GenomicsAdapter().install(db)

    def test_papers_example_query(self, db):
        db.execute(
            "CREATE TABLE dna_fragments (id INTEGER PRIMARY KEY, "
            "fragment DNA)"
        )
        db.execute(
            "INSERT INTO dna_fragments VALUES "
            "(1, dna('ATGATTGCCATAGGG')), (2, dna('CCCCGGGG'))"
        )
        result = db.query(
            "SELECT id FROM dna_fragments "
            "WHERE contains(fragment, 'ATTGCCATA')"
        )
        assert result.rows == [(1,)]

    def test_type_checking_of_udt_columns(self, db):
        db.execute("CREATE TABLE s (seq DNA)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO s VALUES (42)")

    def test_central_dogma_in_sql(self, db, demo_gene):
        db.execute("CREATE TABLE genes (id INTEGER, g GENE)")
        db.execute("INSERT INTO genes VALUES (1, ?)", [demo_gene])
        result = db.query(
            "SELECT seq_text(protein_sequence("
            "translate(splice(transcribe(g))))) FROM genes"
        )
        assert result.scalar() == "MAIVR"

    def test_express_shorthand(self, db, demo_gene):
        db.execute("CREATE TABLE genes (id INTEGER, g GENE)")
        db.execute("INSERT INTO genes VALUES (1, ?)", [demo_gene])
        assert db.query(
            "SELECT seq_text(protein_sequence(express(g))) FROM genes"
        ).scalar() == "MAIVR"

    def test_udf_in_order_by(self, db):
        # Section 6.3: UDFs usable in SELECT, WHERE, GROUP BY, ORDER BY.
        db.execute("CREATE TABLE s (id INTEGER, seq DNA)")
        db.execute(
            "INSERT INTO s VALUES (1, dna('GGGCCC')), (2, dna('AATT')), "
            "(3, dna('AAGC'))"
        )
        result = db.query("SELECT id FROM s ORDER BY gc_content(seq) DESC")
        assert result.column("id") == [1, 3, 2]

    def test_udf_in_group_by(self, db):
        db.execute("CREATE TABLE s (id INTEGER, seq DNA)")
        db.execute(
            "INSERT INTO s VALUES (1, dna('GGGG')), (2, dna('CCCC')), "
            "(3, dna('ATAT'))"
        )
        result = db.query(
            "SELECT gc_content(seq) AS gc, count(*) AS n FROM s "
            "GROUP BY gc_content(seq) ORDER BY gc"
        )
        assert result.rows == [(0.0, 1), (1.0, 2)]

    def test_gene_accessors(self, db, demo_gene):
        db.execute("CREATE TABLE genes (g GENE)")
        db.execute("INSERT INTO genes VALUES (?)", [demo_gene])
        row = db.query(
            "SELECT gene_name(g), gene_organism(g), exon_count(g), "
            "exonic_length(g) FROM genes"
        ).first()
        assert row == ("demo", "E. coli", 2, 33)

    def test_statistics_functions(self, db):
        db.execute("CREATE TABLE s (seq DNA)")
        db.execute("INSERT INTO s VALUES (dna('ACGT'))")
        row = db.query(
            "SELECT melting_temperature(seq), entropy(seq), "
            "molecular_weight(seq) FROM s"
        ).first()
        assert row[0] == 12.0
        assert row[1] == pytest.approx(2.0)
        assert row[2] > 1000

    def test_similarity_functions(self, db):
        db.execute("CREATE TABLE s (a DNA, b DNA)")
        db.execute(
            "INSERT INTO s VALUES (dna('ATGGCCATTGTA'), dna('ATGGCCATTGTA'))"
        )
        assert db.query("SELECT resembles(a, b) FROM s").scalar() is True
        assert db.query("SELECT similarity(a, b) FROM s").scalar() \
            == pytest.approx(1.0)

    def test_alternatives_in_table(self, db):
        alternatives = Alternatives([
            Uncertain(DnaSequence("ATGA"), 0.7, "GenBank"),
            Uncertain(DnaSequence("ATGC"), 0.3, "EMBL"),
        ])
        db.execute("CREATE TABLE u (id INTEGER, readings ALTERNATIVES)")
        db.execute("INSERT INTO u VALUES (1, ?)", [alternatives])
        assert db.query(
            "SELECT uncertain_count(readings) FROM u"
        ).scalar() == 2
        assert db.query(
            "SELECT seq_text(uncertain_best(readings)) FROM u"
        ).scalar() == "ATGA"
        assert db.query(
            "SELECT uncertain_confidence(readings) FROM u"
        ).scalar() == 0.7

    def test_motif_functions(self, db):
        db.execute("CREATE TABLE s (seq DNA)")
        db.execute("INSERT INTO s VALUES (dna('ATATAT'))")
        assert db.query(
            "SELECT motif_count(seq, 'AT') FROM s"
        ).scalar() == 3
        assert db.query(
            "SELECT motif_position(seq, 'TAT') FROM s"
        ).scalar() == 1

    def test_contains_selectivity_registered(self, db):
        descriptor = db.catalog.function("contains")
        assert descriptor.selectivity == 0.05

    def test_reverse_complement_in_sql(self, db):
        db.execute("CREATE TABLE s (seq DNA)")
        db.execute("INSERT INTO s VALUES (dna('ATGC'))")
        assert db.query(
            "SELECT seq_text(reverse_complement(seq)) FROM s"
        ).scalar() == "GCAT"
