"""Transactions are the statement undo log held open.

``snapshot`` / ``restore`` below are ``Table.snapshot`` /
``Table.restore`` as they were before rollback became an undo log: copy
every row at ``begin``, reload them and rebuild every index on
``rollback``.  They are the reference.  A derandomised script of
``begin`` / DML (some of it failing) / ``commit`` / ``rollback`` runs on
two databases of one layout: one uses transactions, the other runs
autocommit and puts its snapshot back wherever the first rolls back a
transaction or a failed statement.  After every step both hold the same
rows in the same scan order, and every index answers every probe alike.

Costs are counted, not timed: ``begin`` + ``commit`` read no row, and a
rollback makes index calls in proportion to the rows it undoes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.adapter import install_genomics
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.columnar.store import ColumnStore
from repro.db.index.btree import BTreeIndex
from repro.db.index.kmer import KmerIndex
from repro.db.recovery import databases_equal
from repro.db.storage import apply_wal_records
from repro.db.table import RowHeap
from repro.errors import ReproError


def snapshot(table):
    """A restorable copy of the row data (indexes are rebuilt on restore)."""
    return {
        "rows": {row_id: list(row) for row_id, row in table._heap.items()},
        "next_row_id": table._next_row_id,
    }


def restore(table, saved):
    """Empty the table and its indexes, reload the saved rows and
    rebuild every index from them."""
    held = list(table._heap.items())
    for index in table._indexes.values():
        position = table.schema.position(index.column)
        for row_id, row in held:
            index.delete(row[position], row_id)
    for row_id, _ in held:
        table._heap.remove(row_id)
    for row_id, row in saved["rows"].items():
        table._heap.append(row_id, list(row))
    table._next_row_id = saved["next_row_id"]
    for index in table._indexes.values():
        position = table.schema.position(index.column)
        for row_id, row in table._heap.items():
            index.insert(row[position], row_id)


SCHEMA = ("CREATE TABLE t (id INTEGER PRIMARY KEY, code TEXT UNIQUE, "
          "n INTEGER, s DNA)",
          "CREATE INDEX t_n ON t (n) USING btree",
          "CREATE INDEX t_code ON t (code) USING hash",
          "CREATE INDEX t_s ON t (s) USING kmer WITH (k = 4)")
SEQUENCES = ["ACGTACGT", "GGGGCCCC", "ACGTTTTTGG", "ACGNACGT", None]
PROBES = {"id": range(-1, 12), "code": ["a", "b", "c", "zz"],
          "n": range(-1, 9)}
PATTERNS = ["ACGT", "GGCC", "TTTTGG", "CGTA", "AC"]


def _boom(n):
    if n == 4:
        raise ValueError("boom")
    return n


def _database(layout):
    database = Database(layout=layout, page_rows=2)
    install_genomics(database)
    database.register_function("boom", _boom)
    for sql in SCHEMA:
        database.execute(sql)
    return database


def _dna(text):
    return None if text is None else DnaSequence(text)


KEYS = st.integers(0, 8)
CODES = st.sampled_from(["a", "b", "c", None])
NUMBERS = st.integers(0, 6)
steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
    st.tuples(st.just("insert"), st.lists(
        st.tuples(KEYS, CODES, NUMBERS, st.sampled_from(SEQUENCES)),
        min_size=1, max_size=3)),
    st.tuples(st.just("shift"), KEYS),
    st.tuples(st.just("recode"), CODES, KEYS),
    st.tuples(st.just("bump"), NUMBERS),
    st.tuples(st.just("reseq"), st.sampled_from(SEQUENCES), NUMBERS),
    st.tuples(st.just("delete"), NUMBERS),
    st.tuples(st.just("drop"), KEYS),
), min_size=5, max_size=30)


def _statement(step):
    """The SQL text and parameters of one DML step."""
    kind = step[0]
    if kind == "insert":
        rows = step[1]
        values = ", ".join(["(?, ?, ?, ?)"] * len(rows))
        return (f"INSERT INTO t VALUES {values}",
                [value for key, code, n, text in rows
                 for value in (key, code, n, _dna(text))])
    if kind == "shift":  # collides midway: the statement undoes itself
        return "UPDATE t SET id = id + 1 WHERE id >= ?", [step[1]]
    if kind == "recode":
        return "UPDATE t SET code = ? WHERE id = ?", list(step[1:])
    if kind == "bump":
        return "UPDATE t SET n = boom(n + 1) WHERE n >= ?", [step[1]]
    if kind == "reseq":
        return "UPDATE t SET s = ? WHERE n <= ?", [_dna(step[1]), step[2]]
    if kind == "delete":
        return "DELETE FROM t WHERE n = ?", [step[1]]
    # One parameter more than the text holds: the WAL line cuts it.
    return "DELETE FROM t WHERE id = ?", [step[1], "unused"]


def _answers(database):
    table = database.catalog.table("t")

    def keys(row_ids):
        return None if row_ids is None else sorted(
            table.row(row_id)[0] for row_id in row_ids)

    answers = {"rows": [tuple(row) for __, row in table.rows()]}
    for index in table._indexes.values():
        if isinstance(index, KmerIndex):
            answers[index.name] = [keys(index.search_contains(pattern))
                                   for pattern in PATTERNS]
            continue
        answers[index.name] = [len(index)] + [
            keys(index.search_equal(key)) for key in PROBES[index.column]]
        if isinstance(index, BTreeIndex):
            answers[index.name].append(keys(index.search_range()))
    return answers


class TestUndoLogEqualsSnapshot:
    @pytest.mark.parametrize("layout", ["row", "column"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(script=steps)
    def test_every_step(self, layout, script):
        database, reference = _database(layout), _database(layout)
        written = []
        database.attach_wal(lambda sql, parameters: written.append(
            {"sql": sql, "params": list(parameters)}))
        table = reference.catalog.table("t")
        opened = None
        for step in script:
            kind = step[0]
            if kind == "begin":
                if database.in_transaction:
                    continue
                database.begin()
                opened = snapshot(table)
            elif kind in ("commit", "rollback"):
                if not database.in_transaction:
                    continue
                getattr(database, kind)()
                if kind == "rollback":
                    restore(table, opened)
            else:
                sql, parameters = _statement(step)
                saved = snapshot(table)
                outcomes = []
                for target in (database, reference):
                    try:
                        target.execute(sql, parameters)
                        outcomes.append(None)
                    except ReproError as error:
                        outcomes.append(type(error))
                assert outcomes[0] == outcomes[1], step
                if outcomes[0] is not None:
                    restore(table, saved)
            assert _answers(database) == _answers(reference), step
        if database.in_transaction:
            database.commit()
        # The log replays to the same database: each committed
        # transaction is one record, its parameters cut per statement.
        replayed = _database(layout)
        apply_wal_records(written, replayed)
        assert databases_equal(replayed, database)


def _filled(layout, rows):
    database = _database(layout)
    database.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        [(key, f"c{key}", key % 7, _dna(SEQUENCES[key % 4]))
         for key in range(rows)])
    return database


@pytest.mark.parametrize("layout", ["row", "column"])
class TestCosts:
    def test_begin_and_commit_read_no_row(self, layout, monkeypatch):
        database = _filled(layout, 60)
        reads = []
        for heap in (RowHeap, ColumnStore):
            for method in ("items", "get"):
                original = getattr(heap, method)
                monkeypatch.setattr(
                    heap, method,
                    lambda self, *args, _original=original, _name=method:
                    reads.append(_name) or _original(self, *args))
        database.begin()
        database.commit()
        assert reads == []

    def test_rollback_calls_indexes_per_row_changed(self, layout):
        calls = []
        for rows in (40, 400):
            database = _filled(layout, rows)
            counted = []
            for index in database.catalog.table("t")._indexes.values():
                for method in ("insert", "delete"):
                    original = getattr(index, method)
                    setattr(index, method,
                            lambda *args, _original=original:
                            counted.append(1) or _original(*args))
            database.begin()
            database.execute("INSERT INTO t VALUES (-1, 'new', 1, NULL)")
            database.execute("UPDATE t SET n = 99 WHERE id = 3")
            database.execute("DELETE FROM t WHERE id = 5")
            counted.clear()
            database.rollback()
            calls.append(len(counted))
        # Five indexes (two keys, btree, hash, k-mer), three rows: at
        # most one delete and one insert per index per row.
        assert calls[0] == calls[1] <= 2 * 5 * 3
