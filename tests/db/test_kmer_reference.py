"""The value-keyed k-mer index answers like the row-keyed one it replaced.

``RowKmerIndex`` below is the k-mer index as it was before it posted
value ids: every row's words posted under its row id, unposted on every
delete.  Both indexes ride on one table, so every insert, delete,
update, truncate and rolled-back transaction (a snapshot restore)
reaches both, and after every step their candidate sets and ``len()``
must be equal — with one sequence in several rows, ambiguous values, a
value re-inserted after its last row left (the adopted *vacant* value)
and a delete followed by a different insert.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.adapter.adapter import install_genomics
from repro.core.ops._tables import AMBIGUOUS, kmer_keys, symbol_tables
from repro.core.ops.search import Pattern
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.index.base import SequenceIndex
from repro.db.index.kmer import KmerIndex
from repro.db.storage import build_image, image_digest, save_database
from repro.errors import DatabaseError


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
        if not read.ambiguous:
            return set(kmer_keys(read.codes, self.k))
        tables = symbol_tables(read.sequence.alphabet)
        words = set()
        for run in read.codes.translate(tables.ambiguity).split(AMBIGUOUS):
            words.update(kmer_keys(run, self.k))
        return words

    def insert(self, key, row_id):
        if key is None:
            return
        read = self._value(key)
        self._rows.add(row_id)
        if read.ambiguous:
            self._wildcard_rows.add(row_id)
        for word in self._words(read):
            self._postings.setdefault(word, set()).add(row_id)

    def delete(self, key, row_id):
        if key is None:
            return
        self._rows.discard(row_id)
        self._wildcard_rows.discard(row_id)
        for word in self._words(self._value(key)):
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


#: A few values, so the same sequence lands in several rows; two
#: ambiguous, one too short to hold a word, one shared by prefixes.
VALUES = ["ACGTACGTTTGACC", "GACCAGTAGGATACCA", "ACGTNNNACGTACGT",
          "TTTTTTTTTT", "GACCAGTARGATTACA", "ACG", "ACGTACGTTTGACCAG"]
PROBES = ["ACGT", "GACCAG", "TTTT", "ACGTACG", "GATACC", "NNNN", "AC",
          "GTTTGACC", "acgtac", "TARG"]

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


def _table(k):
    database = Database()
    install_genomics(database)
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s DNA)")
    table = database.catalog.table("t")
    value = KmerIndex("v", "t", "s", k)
    reference = RowKmerIndex("r", "t", "s", k)
    table.attach_index(value)
    table.attach_index(reference)
    return database, table, value, reference


def _dna(text):
    return None if text is None else DnaSequence(text)


def _run(database, table, step):
    kind = step[0]
    if kind == "insert":
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _dna(step[2])])
    elif kind == "delete":
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
    elif kind == "update":
        database.execute("UPDATE t SET s = ? WHERE id = ?",
                         [_dna(step[2]), step[1]])
    elif kind == "upsert":
        # The warehouse's upsert: a DELETE and an INSERT of a fresh,
        # equal object — the vacant value's adoption path.
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _dna(step[2])])
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _dna(step[2])])
    elif kind == "truncate":
        table.truncate()
    else:
        database.begin()
        database.execute("DELETE FROM t WHERE id = ?", [step[1]])
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [step[1], _dna(step[2])])
        database.rollback()


class TestValueIndexEqualsRowIndex:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(script=steps, k=st.sampled_from([2, 4, 8]))
    def test_same_candidates_after_every_step(self, script, k):
        database, table, value, reference = _table(k)
        for step in script:
            _run(database, table, step)
            assert len(value) == len(reference), step
            # At most one value stays posted with no row left.
            assert sum(not rows for rows in value._holders.values()) <= 1
            for probe in PROBES:
                assert (value.search_contains(probe)
                        == reference.search_contains(probe)), (step, probe)

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
        postings = {word: set(ids) for word, ids in index._postings.items()}
        index.delete(DnaSequence("ACGTACGTTT"), 1)
        assert index.search_contains("ACGTAC") == set()
        index.insert(DnaSequence("ACGTACGTTT"), 2)
        assert index._postings == postings
        assert index.search_contains("ACGTAC") == {2}
        # A different value purges the vacant one before it is posted.
        index.delete(DnaSequence("ACGTACGTTT"), 2)
        index.insert(DnaSequence("GGGGCCCC"), 3)
        assert index.search_contains("ACGTAC") == set()
        assert len(index._ids) == 1

    def test_one_vacant_value_at_a_time(self):
        index = KmerIndex("v", "t", "s", k=4)
        texts = ["ACGTACGT", "GGGGCCCC", "TTTTAAAA"]
        for row, text in enumerate(texts):
            index.insert(DnaSequence(text), row)
        for row, text in enumerate(texts):
            index.delete(DnaSequence(text), row)
        # Each last-row delete purged the vacant value before it.
        assert len(index) == 0 and len(index._ids) == 1
        assert set(index._postings) == set(
            kmer_keys(DnaSequence("TTTTAAAA").codes(), 4))


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
