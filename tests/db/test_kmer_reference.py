"""The value-keyed k-mer index answers like a row-keyed reference.

``RowKmerIndex`` below is the k-mer index in its simplest form: every
row's words posted under its row id, unposted on every delete, and an
ambiguous value spelt window by window with ``Alphabet.expand``.  Both
indexes ride on one table, so every insert, delete, update, truncate and
rolled-back transaction reaches both, and after every step their
candidate sets and ``len()`` must be equal — with one sequence in
several rows, text and sequence keys, values with one ambiguity code per
window, values with two closer than *k*, a value re-inserted after its
last row left (the adopted *vacant* value) and a delete followed by a
different insert (the re-spelt vacant value).  The candidates must also
hold every live row ``ops.contains`` accepts.
"""

import json
import random
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.adapter.adapter import install_genomics
from repro.core import ops
from repro.core.ops._tables import AMBIGUOUS, kmer_keys, symbol_tables
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.index.base import SequenceIndex
from repro.db.index.kmer import KmerIndex
from repro.db.schema import Column, TableSchema
from repro.db.storage import build_image, image_digest, save_database
from repro.errors import DatabaseError
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)
from repro.warehouse import UnifyingDatabase


class RowKmerIndex(SequenceIndex):
    """The reference: an inverted index ``word → {row ids}``."""

    def __init__(self, name, table_name, column, k=8):
        super().__init__(name, table_name, column)
        if k < 2:
            raise DatabaseError("k-mer length must be at least 2")
        self.k = k
        self._postings = {}
        self._rows = set()
        self._wildcard_rows = set()

    def __len__(self):
        return len(self._rows)

    def clear(self):
        self._postings.clear()
        self._rows.clear()
        self._wildcard_rows.clear()

    def _words(self, read):
        """A pattern's concrete k-mers."""
        if not read.ambiguous:
            return set(kmer_keys(read.codes, self.k))
        tables = symbol_tables(read.sequence.alphabet)
        words = set()
        for run in read.codes.translate(tables.ambiguity).split(AMBIGUOUS):
            words.update(kmer_keys(run, self.k))
        return words

    def _spellings(self, read):
        """Every concrete spelling of every window of a stored value, or
        ``None`` when two of its ambiguity codes are closer than k."""
        alphabet = read.sequence.alphabet
        text = str(read.sequence)
        ambiguous = [at for at, symbol in enumerate(text)
                     if alphabet.is_ambiguous(symbol)]
        if any(second - first < self.k
               for first, second in zip(ambiguous, ambiguous[1:])):
            return None
        words = set()
        for start in range(len(text) - self.k + 1):
            window = text[start:start + self.k]
            for spelt in product(*map(alphabet.expand, window)):
                words.update(kmer_keys(alphabet.encode("".join(spelt)),
                                       self.k))
        return words

    def insert(self, key, row_id):
        if key is None:
            return
        words = self._spellings(self._value(key))
        self._rows.add(row_id)
        if words is None:
            self._wildcard_rows.add(row_id)
            return
        for word in words:
            self._postings.setdefault(word, set()).add(row_id)

    def delete(self, key, row_id):
        if key is None:
            return
        self._rows.discard(row_id)
        self._wildcard_rows.discard(row_id)
        for word in self._spellings(self._value(key)) or ():
            bucket = self._postings.get(word)
            if bucket is not None:
                bucket.discard(row_id)
                if not bucket:
                    del self._postings[word]

    def search_contains(self, pattern):
        read = self._pattern(pattern)
        words = self._words(read) if read is not None else ()
        if not words:
            return None
        postings = sorted(
            (self._postings.get(word, set()) for word in words), key=len)
        return set.intersection(*postings) | self._wildcard_rows


def _postings(index):
    """A :class:`KmerIndex`'s postings as word → set of value ids."""
    return {word: set(ids) for word, ids in index._postings.items()}


#: A few values, so the same sequence lands in several rows: ambiguous
#: ones (three ``N`` in a row; one ``R``; one ``N`` per window; two ``N``
#: four apart; an ``R`` and a ``Y``), one too short to hold a word, one
#: shared by prefixes, and a lower-case one (a text key in a TEXT column).
VALUES = ["ACGTACGTTTGACC", "GACCAGTAGGATACCA", "ACGTNNNACGTACGT",
          "TTTTTTTTTT", "GACCAGTARGATTACA", "ACG", "ACGTACGTTTGACCAG",
          "ACGTACNGTTTGACCAGTANGGATACCA", "GACCNAGTNAGGATACCA",
          "CCRTTACGGATTCAYGGACT", "ggataccagtnacgtacgt"]
#: Several span an ambiguity code of a value above: as ``A`` and as
#: ``C`` (``N``), as ``G`` and as ``C`` (``R``, which cannot be ``C``),
#: as ``T`` (``Y``), and the two ``N`` four apart.
PROBES = ["ACGT", "GACCAG", "TTTT", "ACGTACG", "GATACC", "NNNN", "AC",
          "GTTTGACC", "acgtac", "TARG", "TACAGTTTG", "CAGTACGGAT",
          "CCGTTAC", "CCCTTAC", "TTCATGG", "GACCAAGTTAGG", "CCAGTCACG"]

steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 11),
              st.sampled_from(VALUES + [None])),
    st.tuples(st.just("delete"), st.integers(0, 11)),
    st.tuples(st.just("update"), st.integers(0, 11),
              st.sampled_from(VALUES + [None])),
    st.tuples(st.just("upsert"), st.integers(0, 11),
              st.sampled_from(VALUES)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("rollback"), st.integers(0, 11),
              st.sampled_from(VALUES)),
), min_size=10, max_size=40)


def _table(k, column_type="DNA"):
    database = Database()
    install_genomics(database)
    database.execute(
        f"CREATE TABLE t (id INTEGER PRIMARY KEY, s {column_type})")
    table = database.catalog.table("t")
    value = KmerIndex("v", "t", "s", k)
    reference = RowKmerIndex("r", "t", "s", k)
    table.attach_index(value)
    table.attach_index(reference)
    return database, table, value, reference


def _cell(table, text):
    """*text* as the column stores it: a sequence, or text as given."""
    if text is None or table.schema.column("s").sql_type.name == "TEXT":
        return text
    return DnaSequence(text)


def _run(database, table, step):
    kind = step[0]
    if kind == "insert":
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _cell(table, step[2])])
    elif kind == "delete":
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
    elif kind == "update":
        database.execute("UPDATE t SET s = ? WHERE id = ?",
                         [_cell(table, step[2]), step[1]])
    elif kind == "upsert":
        # The warehouse's upsert: a DELETE and an INSERT of a fresh,
        # equal object — the vacant value's adoption path.
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _cell(table, step[2])])
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _cell(table, step[2])])
    elif kind == "truncate":
        table.truncate()
    else:
        database.begin()
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _cell(table, step[2])])
        database.rollback()


def _matches(table, probe):
    """Live rows ``contains`` accepts: what no candidate set may miss."""
    return {row_id for row_id, (__, value) in table.rows()
            if value is not None
            and ops.contains(DnaSequence(str(value)), probe)}


class TestValueIndexEqualsRowIndex:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(script=steps, k=st.sampled_from([2, 4, 8]),
           column_type=st.sampled_from(["DNA", "TEXT"]))
    def test_same_candidates_after_every_step(self, script, k, column_type):
        database, table, value, reference = _table(k, column_type)
        for step in script:
            _run(database, table, step)
            assert len(value) == len(reference), step
            # At most one value stays posted with no row left, and every
            # posted word is a spelling of a live or the vacant value.
            assert sum(not rows for rows in value._holders.values()) <= 1
            vacant = set()
            if value._vacant is not None:
                vacant = reference._spellings(value._value(value._vacant[1]))
            assert set(_postings(value)) == set(reference._postings) | vacant
            for probe in PROBES:
                candidates = value.search_contains(probe)
                assert candidates == reference.search_contains(probe), (
                    step, probe)
                if candidates is not None:
                    assert _matches(table, probe) <= candidates, (
                        step, probe)

    def test_text_keys_share_values_too(self):
        value = KmerIndex("v", "t", "s", k=4)
        reference = RowKmerIndex("r", "t", "s", k=4)
        script = [("insert", "ACGTACGT", 1), ("insert", "ACGTACGT", 2),
                  ("delete", "ACGTACGT", 1), ("delete", "ACGTACGT", 2),
                  ("insert", "ACGTACGT", 3), ("delete", "ACGTACGT", 3),
                  ("insert", "GGGGCCCC", 4), ("insert", "acgtNNgt", 5)]
        for action, key, row in script:
            for index in (value, reference):
                getattr(index, action)(key, row)
            assert len(value) == len(reference)
            for probe in ("ACGT", "GGCC", "CGTA", "GGGG"):
                assert (value.search_contains(probe)
                        == reference.search_contains(probe))

    def test_equal_reinsert_adopts_without_reposting(self):
        index = KmerIndex("v", "t", "s", k=4)
        index.insert(DnaSequence("ACGTACGTTT"), 1)
        postings = _postings(index)
        index.delete(DnaSequence("ACGTACGTTT"), 1)
        assert index.search_contains("ACGTAC") == set()
        index.insert(DnaSequence("ACGTACGTTT"), 2)
        assert _postings(index) == postings
        assert index.search_contains("ACGTAC") == {2}
        # A different value takes over the vacant value's id, re-spelt.
        index.delete(DnaSequence("ACGTACGTTT"), 2)
        index.insert(DnaSequence("GGGGCCCC"), 3)
        assert index.search_contains("ACGTAC") == set()
        assert len(index._ids) == 1
        vid, = index._ids.values()
        assert _postings(index) == {
            word: {vid}
            for word in kmer_keys(DnaSequence("GGGGCCCC").codes(), 4)}

    def test_one_vacant_value_at_a_time(self):
        index = KmerIndex("v", "t", "s", k=4)
        texts = ["ACGTACGT", "GGGGCCCC", "TTTTAAAA"]
        for row, text in enumerate(texts):
            index.insert(DnaSequence(text), row)
        for row, text in enumerate(texts):
            index.delete(DnaSequence(text), row)
        # Each last-row delete purged the vacant value before it.
        assert len(index) == 0 and len(index._ids) == 1
        assert set(_postings(index)) == set(
            kmer_keys(DnaSequence("TTTTAAAA").codes(), 4))


class _CountingDict(dict):
    """A dict that counts the keys written or deleted through it."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes += 1
        super().__delitem__(key)


class TestRespelling:
    def test_an_upserted_mutant_rewrites_only_the_words_that_differ(self):
        rng = random.Random(2801)
        database, table, value, reference = _table(8)
        texts = ["".join(rng.choice("ACGT") for __ in range(300))
                 for __ in range(6)]
        for row, text in enumerate(texts):
            database.execute("INSERT INTO t VALUES (?, ?)",
                             [row, DnaSequence(text)])
        mutant = list(texts[2])
        for at in (40, 200):
            mutant[at] = "A" if mutant[at] != "A" else "C"
        mutant = "".join(mutant)
        old, new = (set(kmer_keys(DnaSequence(text).codes(), 8))
                    for text in (texts[2], mutant))
        value._postings = _CountingDict(value._postings)
        database.execute("DELETE FROM t WHERE id = 2")
        database.execute("INSERT INTO t VALUES (2, ?)", [DnaSequence(mutant)])
        # Sixteen windows hold a changed base; a full re-post would
        # write each of the mutant's ~290 words and unpost as many.
        assert value._postings.writes == len(old ^ new) <= 32
        assert len(value) == len(reference) == 6
        for probe in (mutant[30:50], texts[2][30:50], mutant[100:120]):
            assert (value.search_contains(probe)
                    == reference.search_contains(probe))


def test_the_biql_warehouse_leaves_one_wildcard_row():
    """The e2e ``biql_interactive`` warehouse (Universe 400, data seed
    1203): 38 genes hold an ambiguity code, and only one holds two
    closer than k."""
    universe = Universe(seed=1203, size=400)
    warehouse = UnifyingDatabase([
        source(universe) for source in (
            GenBankRepository, EmblRepository, SwissProtRepository,
            AceRepository, RelationalRepository)])
    warehouse.initial_load()
    table = warehouse.db.catalog.table("public_genes")
    index, = (index for index in table.indexes_on("sequence")
              if isinstance(index, KmerIndex))
    position = table.schema.position("sequence")
    ambiguous = [row_id for row_id, row in table.rows()
                 if index._value(row[position]).ambiguous]
    assert len(ambiguous) == 38
    assert len(index._wildcard_rows) == 1
    assert index._wildcard_rows <= set(ambiguous)


class TestImageBytes:
    def test_saved_image_is_json_dump_of_the_image(self, tmp_path):
        database, __, __, __ = _table(4)
        for row, text in enumerate(VALUES):
            database.execute("INSERT INTO t VALUES (?, ?)",
                             [row, DnaSequence(text)])
        database.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, "
                         "x REAL, name TEXT, flag BOOLEAN)")
        database.executemany("INSERT INTO n VALUES (?, ?, ?, ?)",
                             [(1, 0.1, 'é"\\☃', True),
                              (2, -1e300, None, False)])
        path = tmp_path / "image.json"
        save_database(database, str(path), wal_generation=3)
        image = build_image(database, 3)
        image["digest"] = image_digest(image)
        expected = tmp_path / "expected.json"
        with open(expected, "w", encoding="utf-8") as handle:
            json.dump(image, handle)
        assert path.read_bytes() == expected.read_bytes()

    def test_image_keys_are_in_canonical_order(self):
        """A plain dump of the image is the sorted-key dump its digest
        covers, UDT payloads, bytes cells and index parameters
        included."""
        database, __, __, __ = _table(4)
        database.execute("INSERT INTO t VALUES (1, ?)",
                         [DnaSequence("ACGTN")])
        dna = database.catalog.resolve_type("DNA")
        database.create_table(TableSchema("u", [
            Column("id", database.catalog.resolve_type("INTEGER")),
            Column("s", dna, default=DnaSequence("GATTACA")),
            Column("b", database.catalog.resolve_type("BLOB")),
        ], "id", ()))
        database.execute("INSERT INTO u (id, b) VALUES (1, ?)",
                         [b"\x00\xff"])
        database.execute("CREATE INDEX seqs ON u (s) USING kmer "
                         "WITH (k = 4)")
        image = build_image(database, 2)
        assert {"$udt", "data"} <= set(image["tables"][1]["columns"][1]
                                       ["default"])
        assert image["tables"][1]["rows"][0][2] == {"$bytes": "00ff"}
        assert image["indexes"][0]["parameters"] == {"k": 4}
        assert json.dumps(image) == json.dumps(image, sort_keys=True)
