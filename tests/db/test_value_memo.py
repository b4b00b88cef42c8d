"""A stored value derives each algebra fact once, and nobody can tell.

The adapter keeps what a function derives from its stored operand alone
on that value (``PackedSequence.derive``): the unary statistics, the ORF
count at the default minimum, the k-mer vector at the default k, and a
gene's expressed residues (on its sequence, under its exons).  The
law is that a memoized answer is the core operation's answer on a fresh
equal value, bit for bit — errors included — on every layout, and that
no byte anywhere (``==``, ``hash``, ``to_bytes``, column pages, images,
WAL) changes because a value has been asked something.
"""

import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter import install_genomics
from repro.adapter.serializers import serialize_gene
from repro.core import ops
from repro.core.ops.similarity import kmer_cosine
from repro.core.types import (DnaSequence, Gene, Interval, ProteinSequence,
                              RnaSequence)
from repro.core.types.alphabet import DNA, PROTEIN, RNA
from repro.db import Database
from repro.db.columnar.pages import encode_page
from repro.db.columnar.spill import ValueCodec
from repro.db.storage import WriteAheadLog, save_database
from repro.errors import (DatabaseError, SortMismatchError,
                          TranslationError, TypeCheckError)
from tests.core.test_ops_reference import ref_cosine_similarity

CONFIGS = (
    {"layout": "row"},
    {"layout": "column"},
    {"layout": "column", "page_rows": 2},
)
IDS = ("row", "column", "column-page_rows=2")

#: SQL name → core operation, per column; every one but ``gc_content``
#: (one C translate, cheaper than what the memo keeps) is memoized.
UNARY = {
    "gc_content": ops.gc_content,
    "melting_temperature": ops.melting_temperature,
    "molecular_weight": ops.molecular_weight,
    "isoelectric_point": ops.isoelectric_point,
    "hydropathy": ops.hydropathy,
    "entropy": ops.shannon_entropy,
    "orf_count": lambda dna: len(ops.find_orfs(dna, 20)),
}
#: The unary statistics less ``gc_content``, plus the k-mer vector.
MEMOIZED = len(UNARY)
PROBE = DnaSequence("ACGTTGCAACGTAGGCTTAC")

nucleotides = st.one_of(
    st.text(alphabet="ACGT", max_size=90),
    st.text(alphabet="ACGT" * 8 + "RYSWKMBDHVN-", max_size=90),
    st.text(alphabet=DNA.symbols, max_size=45),
)
rows = st.lists(
    st.tuples(nucleotides, st.text(alphabet=PROTEIN.symbols, max_size=60)),
    min_size=1, max_size=5)


def loaded(config, pairs) -> Database:
    database = Database(**config)
    install_genomics(database)
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, d DNA, "
                     "r RNA, p PROTEIN_SEQ)")
    for row_id, (dna, protein) in enumerate(pairs):
        database.execute("INSERT INTO t VALUES (?, dna(?), rna(?), "
                         "protein_seq(?))",
                         [row_id, dna, dna.replace("T", "U"), protein])
    return database


def outcome(call):
    """``("value", bits)`` or ``("error", type, text)`` of *call*; a
    failure inside a SQL function is compared by what it wraps."""
    try:
        value = call()
    except Exception as error:  # noqa: BLE001 — the outcome is the point
        cause = error.__cause__ or error
        return ("error", type(cause), str(cause))
    if isinstance(value, float):
        return ("value", struct.pack("<d", value))
    return ("value", value)


def cell(database, sql, row_id, parameters=()):
    return database.execute(f"{sql} FROM t WHERE id = ?",
                            [*parameters, row_id]).rows[0][0]


def stored(database, row_id):
    """The row's DNA value as a row-layout heap holds it."""
    table = database.catalog.table("t")
    return next(row[1] for __, row in table.rows() if row[0] == row_id)


every_layout = pytest.mark.parametrize("config", CONFIGS, ids=IDS)


class TestMemoizedEqualsTheCoreOperation:
    @every_layout
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(pairs=rows)
    def test_twice_through_sql_is_the_core_op_on_a_fresh_value(
            self, config, pairs):
        database = loaded(config, pairs)
        for row_id, (dna, protein) in enumerate(pairs):
            fresh = {"d": DnaSequence(dna),
                     "r": RnaSequence(dna.replace("T", "U")),
                     "p": ProteinSequence(protein)}
            for column, value in fresh.items():
                for name, operation in UNARY.items():
                    want = outcome(lambda: operation(value))
                    for __ in range(2):
                        got = outcome(lambda: cell(
                            database, f"SELECT {name}({column})", row_id))
                        assert got == want, (name, column, value)
            for sql, operation in (
                    ("SELECT resembles(d, dna(?))",
                     lambda value: ops.resembles(value, PROBE)),
                    ("SELECT similarity(d, dna(?))",
                     lambda value: ops.cosine_similarity(value, PROBE))):
                want = outcome(lambda: operation(fresh["d"]))
                for __ in range(2):
                    got = outcome(lambda: cell(database, sql, row_id,
                                               [str(PROBE)]))
                    assert got == want, (sql, fresh["d"])


class TestTheMemoIsBounded:
    def test_explicit_arguments_compute_afresh_and_store_nothing(self):
        database = loaded(CONFIGS[0], [("ATGAAACCCGGGTTTTAA" * 5, "MKV")])
        statements = [f"SELECT {name}(d)" for name in UNARY] + [
            "SELECT resembles(d, dna(?))", "SELECT similarity(d, dna(?))"]
        for sql in statements:
            parameters = [str(PROBE)] if "?" in sql else []
            outcome(lambda: cell(database, sql, 0, parameters))
        value = stored(database, 0)
        derived = dict(value._derived)
        assert len(derived) <= MEMOIZED
        assert ops.gc_content not in derived
        for minimum in range(1, 30):
            assert cell(database, "SELECT orf_count(d, ?)", 0,
                        [minimum]) == len(ops.find_orfs(value, minimum))
        for k in range(1, 12):
            assert cell(database, "SELECT similarity(d, dna(?), ?)", 0,
                        [str(PROBE), k]) == ops.cosine_similarity(
                            value, PROBE, k)
        assert value._derived == derived

    def test_a_refused_call_stores_nothing(self):
        database = loaded(CONFIGS[0], [("ACGTACGT", "MKV")])
        for name in ("isoelectric_point", "hydropathy"):
            with pytest.raises(DatabaseError) as raised:
                cell(database, f"SELECT {name}(d)", 0)
            assert isinstance(raised.value.__cause__, SortMismatchError)
        assert not getattr(stored(database, 0), "_derived", {})


class TestTheMemoIsInvisible:
    def test_value_equality_hash_bytes_and_pages(self):
        texts = ["ATGAAACCCGGGTTTTAA", "ACGTN", ""]
        asked = [DnaSequence(text) for text in texts]
        for value in asked[:2]:
            value.derive(ops.gc_content, ops.gc_content)
            value.derive("other", lambda value: [len(value)])
        for fresh, value in zip(map(DnaSequence, texts), asked):
            assert value == fresh and hash(value) == hash(fresh)
            assert value.to_bytes() == fresh.to_bytes()
        database = Database()
        install_genomics(database)
        codec = ValueCodec(database.catalog)
        assert encode_page(asked, "DNA", codec) == encode_page(
            [DnaSequence(text) for text in texts], "DNA", codec)

    @every_layout
    def test_image_and_wal_bytes(self, tmp_path, config):
        pairs = [("ATGAAACCCGGGTTTTAA" * 3, "MKWVTF"), ("ACGTN", "MA")]
        outputs = []
        for asked in (False, True):
            directory = tmp_path / str(asked)
            directory.mkdir()
            database = loaded(config, pairs)
            wal = WriteAheadLog(str(directory / "wal.jsonl"), database)
            wal.attach()
            if asked:
                database.execute(
                    "SELECT gc_content(d), melting_temperature(d), "
                    "entropy(d), orf_count(d), similarity(d, d), "
                    "hydropathy(p), isoelectric_point(p) FROM t")
            database.execute("UPDATE t SET d = dna('GGGCCC') WHERE id = 1")
            wal.close()
            save_database(database, str(directory / "image.json"))
            outputs.append([(directory / name).read_bytes()
                            for name in ("wal.jsonl", "image.json")])
        assert outputs[0] == outputs[1]


class TestErrors:
    @every_layout
    @pytest.mark.parametrize("sql, parameter", [
        ("SELECT orf_count(d, ?)", "abc"),
        ("SELECT resembles(d, dna('ACGT'), ?)", "x"),
        ("SELECT similarity(d, dna('ACGT'), ?)", "x"),
        ("SELECT similarity(d, dna('ACGT'), ?)", 2.0),
    ])
    def test_a_non_numeric_argument_is_a_type_check_error(
            self, config, sql, parameter):
        database = loaded(config, [("ATGAAACCCGGGTTTTAA", "MKV")])
        function = sql.split()[1].split("(")[0]
        for fill in (False, True):   # the memo empty, then filled
            if fill:
                database.execute("SELECT orf_count(d), resembles(d, d), "
                                 "similarity(d, d) FROM t")
            with pytest.raises(TypeCheckError) as raised:
                cell(database, sql, 0, [parameter])
            assert function in str(raised.value)
            assert "argument" in str(raised.value)
            assert "not supported" not in str(raised.value)

    @pytest.mark.parametrize("name, declared", [
        ("transcribe", "gene"), ("splice", "primarytranscript"),
        ("translate", "mrna"), ("express", "gene"),
        ("reverse_transcribe", "mrna"), ("gene_name", "gene"),
        ("gene_sequence", "gene"), ("gene_organism", "gene"),
        ("exon_count", "gene"), ("exonic_length", "gene"),
        ("protein_sequence", "protein"), ("protein_name", "protein")])
    @pytest.mark.parametrize("argument, given", [
        ("dna('ATG')", "dna"), ("'ATG'", "string")])
    def test_a_wrong_sort_is_refused_through_sql(self, name, declared,
                                                 argument, given):
        """Failing-first: these surfaced Python's own text ("'DnaSequence'
        object has no attribute 'sequence'")."""
        database = Database()
        install_genomics(database)
        with pytest.raises(DatabaseError) as raised:
            database.execute(f"SELECT {name}({argument})")
        assert type(raised.value.__cause__) is SortMismatchError
        assert str(raised.value.__cause__) == (
            f"{name} is declared over {declared}, not {given}")

    @pytest.mark.parametrize("name, value, declared, given", [
        ("isoelectric_point", DnaSequence("ATGAAACCCGGGTTTTAA"),
         "protein_seq", "dna"),
        ("hydropathy", DnaSequence("ATGAAACCCGGGTTTTAA"),
         "protein_seq", "dna"),
        ("hydropathy", RnaSequence("AUGAAA"), "protein_seq", "rna"),
        ("melting_temperature", ProteinSequence("ACGT"), "dna",
         "protein_seq"),
        ("melting_temperature", RnaSequence("ACGU"), "dna", "rna"),
    ])
    def test_a_declared_sort_is_enforced(self, name, value, declared,
                                         given):
        with pytest.raises(SortMismatchError) as raised:
            getattr(ops, name)(value)
        for word in (name, declared, given):
            assert word in str(raised.value)
        database = Database()
        install_genomics(database)
        constructor = {DNA: "dna", RNA: "rna", PROTEIN: "protein_seq"}[
            value.alphabet]
        for __ in range(2):
            with pytest.raises(DatabaseError) as through_sql:
                database.execute(f"SELECT {name}({constructor}(?))",
                                 [str(value)])
            assert type(through_sql.value.__cause__) is SortMismatchError
            assert str(through_sql.value.__cause__) == str(raised.value)


class TestUpdate:
    @every_layout
    def test_an_update_yields_the_new_values_facts(self, config):
        database = loaded(config, [("ATGAAACCCGGGTTTTAA" * 4, "MKV")])
        sql = ("SELECT melting_temperature(d), orf_count(d, 1), "
               "orf_count(d), similarity(d, dna(?))")
        before = database.execute(sql + " FROM t", [str(PROBE)]).rows[0]
        new = DnaSequence("GGGGCCCCATGTTTAAA" * 3)
        database.execute("UPDATE t SET d = dna(?) WHERE id = 0", [str(new)])
        after = database.execute(sql + " FROM t", [str(PROBE)]).rows[0]
        assert after == (ops.melting_temperature(new),
                         len(ops.find_orfs(new, 1)),
                         len(ops.find_orfs(new, 20)),
                         ops.cosine_similarity(new, PROBE))
        assert after != before


#: Genes over mostly concrete DNA, exons between sorted cuts: some
#: express, some have no start codon or an untranslatable codon.
genes = st.lists(st.tuples(
    st.text(alphabet="ACGT" * 6 + "ATG" * 2 + "N-", max_size=60),
    st.lists(st.integers(0, 60), max_size=6)), min_size=1, max_size=4)


def gene(text, cuts, name="g") -> Gene:
    bounds = sorted({min(cut, len(text)) for cut in cuts})
    exons = tuple(Interval(start, end)
                  for start, end in zip(bounds[::2], bounds[1::2]))
    return Gene(name, DnaSequence(text), exons)


def genes_loaded(config, drawn) -> Database:
    database = Database(**config)
    install_genomics(database)
    database.execute("CREATE TABLE gs (id INTEGER PRIMARY KEY, g GENE)")
    database.executemany("INSERT INTO gs VALUES (?, ?)", [
        (row_id, gene(text, cuts, f"g{row_id}"))
        for row_id, (text, cuts) in enumerate(drawn)])
    return database


class TestExpress:
    """``express`` keeps the protein's residues on the stored gene's
    sequence, keyed by its exons, and builds a fresh ``Protein`` from
    the calling gene each time."""

    @every_layout
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(drawn=genes)
    def test_twice_through_sql_is_express_on_a_fresh_gene(self, config,
                                                           drawn):
        database = genes_loaded(config, drawn)
        sql = "SELECT express(g) FROM gs WHERE id = ?"
        for row_id, (text, cuts) in enumerate(drawn):
            want = outcome(lambda: ops.express(
                gene(text, cuts, f"g{row_id}")))
            got = [outcome(lambda: database.execute(sql, [row_id]).rows[0][0])
                   for __ in range(3)]
            assert got == [want] * 3, (text, cuts)
            if want[0] == "value":
                first, second = (database.execute(sql, [row_id]).rows[0][0]
                                 for __ in range(2))
                assert first is not second and first == second
                assert first.annotations is not second.annotations
            else:  # no start codon, a short or untranslatable region
                assert want[1] is TranslationError

    @every_layout
    def test_a_gene_is_asked_for_its_exons_now(self, config):
        database = Database(**config)
        install_genomics(database)
        text = "ATGAAATTTCCCATGGGGTAA"
        asked = gene(text, (0, 21))
        express = [ops.express(gene(text, cuts))
                   for cuts in ((0, 21), (0, 3, 9, 21))]
        answers = []
        for cuts in ((0, 21), (0, 3, 9, 21), (3, 12), (0, 21)):
            asked.exons = gene(text, cuts).exons
            answers.append(outcome(lambda: database.execute(
                "SELECT express(?)", [asked]).rows[0][0]))
        assert answers[:3] == [("value", express[0]), ("value", express[1]),
                               ("error", TranslationError,
                                "mRNA has no start codon and no annotated "
                                "CDS")]
        assert answers[3] == answers[0]
        asked.name = "renamed"  # the protein is named by the gene asking
        assert database.execute("SELECT express(?)", [asked]).rows[0][0] \
            == ops.express(gene(text, (0, 21), "renamed"))

    @every_layout
    def test_no_byte_changes(self, tmp_path, config):
        drawn = [("ATGAAATTTGGGCCCTAA" * 2, (0, 9, 18, 36)),
                 ("CCCAAATTTGGG", ())]
        outputs = []
        for asked in (False, True):
            directory = tmp_path / str(asked)
            directory.mkdir()
            database = genes_loaded(config, drawn)
            wal = WriteAheadLog(str(directory / "wal.jsonl"), database)
            wal.attach()
            if asked:
                for __ in range(2):
                    database.execute("SELECT id, express(g) FROM gs "
                                     "WHERE id = 0")
            database.execute("UPDATE gs SET g = ? WHERE id = 1",
                             [gene("ATGCCCTAA", ())])
            wal.close()
            save_database(database, str(directory / "image.json"))
            outputs.append([(directory / name).read_bytes()
                            for name in ("wal.jsonl", "image.json")])
        assert outputs[0] == outputs[1]
        value, fresh = gene(*drawn[0]), gene(*drawn[0])
        ops_answer = ops.express(value)
        value.sequence.derive((ops.express, value.exons),
                              lambda __: ops_answer.sequence)
        assert value == fresh and serialize_gene(value) == serialize_gene(
            fresh)
        assert hash(value.sequence) == hash(fresh.sequence)
        assert value.sequence.to_bytes() == fresh.sequence.to_bytes()
        codec = ValueCodec(database.catalog)
        assert encode_page([value], "GENE", codec) == encode_page(
            [fresh], "GENE", codec)

    def test_the_residues_are_kept_on_the_stored_gene(self):
        database = genes_loaded(CONFIGS[0], [("ATGAAATTTGGGCCCTAA", ())])
        database.execute("SELECT express(g) FROM gs")
        table = database.catalog.table("gs")
        stored_gene = next(row[1] for __, row in table.rows())
        kept = stored_gene.sequence._derived
        assert list(kept) == [(ops.express, stored_gene.exons)]
        assert kept[(ops.express, stored_gene.exons)] == ProteinSequence(
            "MKFGP")


class TestDenseWindows:
    """``resembles`` / ``similarity`` dot one byte per window where a value
    is concrete DNA or RNA, one key per window elsewhere; the answer is
    the spelt windows' cosine either way, memo empty or filled."""

    @every_layout
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(pairs=rows, probe=st.one_of(
        nucleotides, st.just("A" * 300), st.just(""), st.just("ACG")))
    def test_the_dense_dot_is_the_keyed_dot_through_sql(
            self, config, pairs, probe):
        database = loaded(config, pairs)
        for fill in (False, True):  # the memo empty, then filled
            if fill:
                database.execute("SELECT resembles(d, d), similarity(d, d), "
                                 "similarity(r, r) FROM t")
            for row_id, (dna, protein) in enumerate(pairs):
                for column, text, spelt in (
                        ("d", dna, probe),
                        ("r", dna.replace("T", "U"), probe.replace("T", "U")),
                        ("p", protein, probe.replace("U", "T"))):
                    constructor = {"d": "dna", "r": "rna",
                                   "p": "protein_seq"}[column]
                    for k in (4, 2, 6):
                        want = ref_cosine_similarity(text, spelt, k)
                        got = cell(database, f"SELECT similarity({column}, "
                                   f"{constructor}(?), ?)", row_id,
                                   [spelt, k])
                        assert got == want, (column, text, spelt, k)
                    at_default = ref_cosine_similarity(text, spelt, 4)
                    assert cell(database, f"SELECT resembles({column}, "
                                f"{constructor}(?), ?)", row_id,
                                [spelt, at_default]) is True

    @every_layout
    def test_an_n_row_against_an_acgt_probe_looks_up_no_key(
            self, config, monkeypatch):
        """The row's windows that hold no N are dotted through the
        probe's byte table (prepared before the keyed lookup is
        refused), memo empty or filled."""
        from repro.core.ops import similarity

        text = "ATGAAACCCGGGNTTTAAACGTACGTTGCA" * 4
        probe = "AAACCCGGGTTTAAACGTACG"
        want = ref_cosine_similarity(text, probe, 4)
        database = loaded(config, [(text, "M")])
        similarity._prepared(DnaSequence, DnaSequence(probe), 4)

        def refused(*arguments):
            raise AssertionError("keyed lookup")
        monkeypatch.setattr(similarity, "_looked_up", refused)
        for __ in range(2):
            assert cell(database, "SELECT similarity(d, dna(?))", 0,
                        [probe]) == want
            assert cell(database, "SELECT resembles(d, dna(?), ?)", 0,
                        [probe, want]) is True

    def test_a_memoized_vector_of_a_concrete_value_is_a_byte_a_window(self):
        concrete = "ATGAAACCCGGGTTTTAA" * 10
        database = loaded(CONFIGS[0], [(concrete, "MKV"), ("ACGTNACGT", "M")])
        database.execute("SELECT resembles(d, dna(?)) FROM t", [str(PROBE)])
        vector = stored(database, 0)._derived[kmer_cosine]
        windows = len(concrete) - 3
        assert vector.dense and len(vector.keys) == windows
        assert sys.getsizeof(vector.keys) - sys.getsizeof(b"") <= windows
        assert not stored(database, 1)._derived[kmer_cosine].dense


class TestASealedPageKeepsItsValues:
    """A sealed column page is decoded once while it stays resident, so
    the values a scan hands the algebra are the ones the previous scan
    asked: their facts are derived on the first scan only."""

    ROWS, PAGE_ROWS = 64, 16

    def sealed(self) -> Database:
        database = Database(layout="column", page_rows=self.PAGE_ROWS)
        install_genomics(database)
        database.execute("CREATE TABLE t (id INTEGER, seq DNA)")
        database.executemany(
            "INSERT INTO t VALUES (?, dna(?))",
            [(index, "ATGAAACCCGGGTTTTAAATGCCC" * (1 + index % 4)
              + "ACGT"[index % 4] * index) for index in range(self.ROWS)])
        assert len(database.catalog.table("t").column_store._tail) == 0
        return database

    def calls_per_scan(self, database, sql, parameters=()):
        answers, calls = set(), []
        for __ in range(3):
            del self.calls[:]
            answers.add(database.execute(sql, parameters).rows[0])
            calls.append(len(self.calls))
        assert len(answers) == 1
        return calls

    def counting(self, monkeypatch, owner, name):
        self.calls = []
        original = getattr(owner, name)

        def counted(*arguments, **options):
            self.calls.append(arguments)
            return original(*arguments, **options)
        monkeypatch.setattr(owner, name, counted)

    def test_orf_count_finds_orfs_on_the_first_scan_only(self, monkeypatch):
        database = self.sealed()
        self.counting(monkeypatch, ops, "find_orfs")
        assert self.calls_per_scan(
            database, "SELECT sum(orf_count(seq)) FROM t") == [self.ROWS, 0, 0]

    def test_resembles_builds_each_kmer_vector_on_the_first_scan_only(
            self, monkeypatch):
        from repro.adapter import adapter
        database = self.sealed()
        self.counting(monkeypatch, adapter, "kmer_vector")
        assert self.calls_per_scan(
            database, "SELECT count(*) FROM t WHERE resembles(seq, dna(?))",
            [str(PROBE)]) == [self.ROWS, 0, 0]
