"""Tests for transactions, images, and the write-ahead log."""

import os

import pytest

from repro.adapter import install_genomics
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.db.storage import (
    WriteAheadLog,
    checkpoint,
    load_database,
    read_wal_records,
    save_database,
    segment_generation,
)
from repro.errors import StorageError, TransactionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return database


class TestTransactions:
    def test_commit_keeps_changes(self, db):
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.commit()
        assert db.query("SELECT count(*) FROM t").scalar() == 3

    def test_rollback_discards_changes(self, db):
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.execute("UPDATE t SET v = 'zzz' WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        db.rollback()
        assert db.query("SELECT count(*) FROM t").scalar() == 2
        assert db.query("SELECT v FROM t WHERE id = 1").scalar() == "a"

    def test_rollback_restores_unique_state(self, db):
        db.begin()
        db.execute("DELETE FROM t WHERE id = 1")
        db.rollback()
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1, 'dup')")

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_in_transaction_flag(self, db):
        assert not db.in_transaction
        db.begin()
        assert db.in_transaction
        db.commit()
        assert not db.in_transaction


@pytest.fixture
def logged(db, tmp_path):
    """*db* with a WAL behind a checkpoint image: ``recover`` must
    always rebuild exactly what the primary holds."""
    image, wal_path = str(tmp_path / "image.json"), str(tmp_path / "wal")
    wal = WriteAheadLog(wal_path, db)
    wal.attach()
    checkpoint(db, image, wal)
    yield db, image, wal
    wal.close()


def _ids(database):
    return database.query("SELECT id FROM t").column("id")


class TestNothingSplitsThePrimaryFromItsLog:
    """Regressions: each of these left the primary holding a state its
    own log (and so recovery and every follower) did not."""

    def test_ddl_inside_a_transaction_is_refused(self, logged):
        db, image, wal = logged
        db.begin()
        for ddl in ("CREATE TABLE x (id INTEGER)",
                    "CREATE INDEX tv ON t (v)", "DROP INDEX IF EXISTS tv ON t",
                    "DROP TABLE t"):
            with pytest.raises(TransactionError):
                db.execute(ddl)
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.rollback()
        assert not db.catalog.has_table("x") and db.index_definitions == ()
        assert _ids(db) == [1, 2]
        assert databases_equal(db, recover(image, wal.path)[0])

    def test_a_checkpoint_inside_a_transaction_is_refused(self, logged):
        db, image, wal = logged
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.begin()
        db.execute("INSERT INTO t VALUES (4, 'd')")
        with pytest.raises(TransactionError):
            checkpoint(db, image, wal)
        with pytest.raises(TransactionError):
            save_database(db, image + ".other")
        # Comparing states still works mid-transaction.
        assert not databases_equal(db, recover(image, wal.path)[0])
        db.rollback()
        assert _ids(db) == [1, 2, 3]
        assert databases_equal(db, recover(image, wal.path)[0])


class TestReopenedLog:
    """A log reopened after a crash starts its next record on a line of
    its own: a torn final line is cut, a whole one is ended."""

    def _crashed(self, tmp_path, tail):
        path = str(tmp_path / "wal.jsonl")
        database = Database()
        wal = WriteAheadLog(path, database)
        wal.attach()
        database.execute("CREATE TABLE t (id INTEGER)")
        wal.close()
        with open(path, "a") as handle:
            handle.write(tail)
        reopened = WriteAheadLog(path, database)
        reopened.attach()
        return path, database, reopened

    @pytest.mark.parametrize("writes", [1, 2])
    def test_a_torn_tail_is_cut_before_the_next_write(self, tmp_path,
                                                      writes):
        path, database, wal = self._crashed(
            tmp_path, '{"sql": "INSERT INTO t VAL')
        created = [f"CREATE TABLE {name} (id INTEGER)"
                   for name in ("u", "w")[:writes]]
        for sql in created:
            database.execute(sql)
        wal.close()
        records, torn = read_wal_records(path)
        assert [record["sql"] for record in records][1:] == created
        assert not torn
        assert databases_equal(
            database, recover(str(tmp_path / "none.json"), path)[0])

    def test_a_whole_unended_line_is_kept(self, tmp_path):
        probe = str(tmp_path / "probe.jsonl")
        with WriteAheadLog(probe, Database()) as log:
            log.append("INSERT INTO t VALUES (?)", [7])
        with open(probe) as handle:
            whole = handle.read().splitlines()[1]
        path, database, wal = self._crashed(tmp_path, whole)
        no_image = str(tmp_path / "none.json")
        expected = recover(no_image, path)[0]  # replays the unended line
        for target in (expected, database):
            target.execute("INSERT INTO t VALUES (8)")
        wal.close()
        assert len(read_wal_records(path)[0]) == 3
        assert databases_equal(expected, recover(no_image, path)[0])


class TestImages:
    def test_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "image.json")
        db.execute("CREATE INDEX iv ON t (v) USING hash")
        save_database(db, path)
        restored = load_database(path)
        assert restored.query("SELECT count(*) FROM t").scalar() == 2
        assert restored.query("SELECT v FROM t WHERE id = 1").scalar() == "a"
        assert "IndexEqualScan" in restored.explain(
            "SELECT * FROM t WHERE v = 'a'"
        )

    def test_constraints_survive(self, db, tmp_path):
        path = str(tmp_path / "image.json")
        save_database(db, path)
        restored = load_database(path)
        with pytest.raises(Exception):
            restored.execute("INSERT INTO t VALUES (1, 'dup')")

    def test_udt_values_roundtrip(self, tmp_path):
        database = Database()
        install_genomics(database)
        database.execute("CREATE TABLE s (id INTEGER, seq DNA)")
        database.execute("INSERT INTO s VALUES (1, ?)",
                         [DnaSequence("ATGGCC")])
        path = str(tmp_path / "image.json")
        save_database(database, path)
        restored = Database()
        install_genomics(restored)
        load_database(path, restored)
        value = restored.query("SELECT seq FROM s").scalar()
        assert value == DnaSequence("ATGGCC")

    def test_unregistered_value_rejected(self, tmp_path):
        database = Database()
        install_genomics(database)
        database.execute("CREATE TABLE s (id INTEGER, seq DNA)")
        database.execute("INSERT INTO s VALUES (1, ?)",
                         [DnaSequence("ATGGCC")])
        plain = Database()  # no UDTs registered
        save_database(database, str(tmp_path / "a.json"))
        with pytest.raises(Exception):
            load_database(str(tmp_path / "a.json"), plain)

    def test_missing_image(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(str(tmp_path / "nope.json"))

    def test_corrupt_image(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_database(str(path))

    def test_bytes_roundtrip(self, tmp_path):
        database = Database()
        database.execute("CREATE TABLE b (id INTEGER, payload BLOB)")
        database.execute("INSERT INTO b VALUES (1, ?)", [b"\x00\xff"])
        path = str(tmp_path / "image.json")
        save_database(database, path)
        restored = load_database(path)
        assert restored.query("SELECT payload FROM b").scalar() == b"\x00\xff"


class TestWal:
    def test_logs_and_replays(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image)

        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.execute("UPDATE t SET v = 'x' WHERE id = 1")

        recovered = load_database(image)
        WriteAheadLog(wal_path, recovered).replay()
        assert recovered.query("SELECT count(*) FROM t").scalar() == 3
        assert recovered.query("SELECT v FROM t WHERE id = 1").scalar() == "x"

    def test_selects_not_logged(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.query("SELECT * FROM t")
        assert not os.path.exists(wal_path) or \
            open(wal_path).read().strip() == ""

    def test_rolled_back_statements_not_logged(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.rollback()
        assert wal.replay(Database()) == 0

    def test_committed_transaction_logged(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        save_database(db, image)
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.commit()
        recovered = load_database(image)
        WriteAheadLog(wal_path, recovered).replay()
        assert recovered.query("SELECT count(*) FROM t").scalar() == 3

    def test_torn_final_record_tolerated(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        save_database(db, image)
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        with open(wal_path, "a") as handle:
            handle.write('{"sql": "INSERT INTO t VAL')  # torn write
        recovered = load_database(image)
        assert WriteAheadLog(wal_path, recovered).replay() == 1

    def test_checkpoint_truncates(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        checkpoint(db, image, wal)
        # The active log holds no records — only the generation header
        # (a bare empty file would reopen as generation 0 and recovery
        # would skew-skip everything appended after the checkpoint).
        assert read_wal_records(wal_path)[0] == []
        assert segment_generation(wal_path) == wal.generation == 1
        restored = load_database(image)
        assert restored.query("SELECT count(*) FROM t").scalar() == 3

    def test_udt_parameters_in_wal(self, tmp_path):
        database = Database()
        install_genomics(database)
        database.execute("CREATE TABLE s (id INTEGER, seq DNA)")
        image = str(tmp_path / "image.json")
        save_database(database, image)
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, database)
        wal.attach()
        database.execute("INSERT INTO s VALUES (1, ?)",
                         [DnaSequence("ATGGCC")])
        recovered = Database()
        install_genomics(recovered)
        load_database(image, recovered)
        WriteAheadLog(wal_path, recovered).replay()
        assert recovered.query("SELECT seq FROM s").scalar() \
            == DnaSequence("ATGGCC")
