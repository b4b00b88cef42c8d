"""PRIMARY KEY / UNIQUE columns are hash indexes the planner can see.

One structure does both jobs: it enforces the key (same errors as the
private bookkeeping it replaced) and it answers ``key = ?``.  It lives
and dies with the table — never in ``index_definitions``, an image or
the WAL, never droppable — so what is on disk is byte-for-byte what the
previous commit wrote.
"""

import contextlib
import hashlib
import io

import pytest

from repro.__main__ import main
from repro.db import Database
from repro.db.index.hashindex import UniqueHashIndex
from repro.db.schema import Column, TableSchema
from repro.db.storage import WriteAheadLog, load_database, save_database
from repro.db.table import Table
from repro.db.values import INTEGER
from repro.errors import CatalogError, ConstraintError, DatabaseError

SCHEMA = ("CREATE TABLE genes (id INTEGER PRIMARY KEY, code TEXT UNIQUE, "
          "name TEXT)")
ROWS = [(1, "c1", "lacZ"), (2, None, "recA"), (3, "c3", None)]


def populated(**options) -> Database:
    database = Database(**options)
    database.execute(SCHEMA)
    database.executemany("INSERT INTO genes VALUES (?, ?, ?)", ROWS)
    return database


def assert_indexes_mirror_heap(table: Table) -> None:
    """Every key index holds exactly the non-NULL keys of the live rows."""
    for index in table._indexes.values():
        if not isinstance(index, UniqueHashIndex):
            continue
        position = table.schema.position(index.column)
        expected = {row[position]: row_id for row_id, row in table.rows()
                    if row[position] is not None}
        assert len(index) == len(expected)
        for key, row_id in expected.items():
            assert tuple(index.search_equal(key)) == (row_id,)


@pytest.fixture(params=["row", "column"])
def database(request) -> Database:
    return populated(layout=request.param, page_rows=2)


class TestEnforcement:
    def test_duplicate_insert_keeps_its_message(self, database):
        with pytest.raises(ConstraintError) as primary:
            database.execute("INSERT INTO genes VALUES (1, 'new', 'x')")
        assert str(primary.value) == (
            "duplicate value 1 for unique column genes.id")
        with pytest.raises(ConstraintError) as unique:
            database.execute("INSERT INTO genes VALUES (9, 'c3', 'x')")
        assert str(unique.value) == (
            "duplicate value 'c3' for unique column genes.code")
        table = database.catalog.table("genes")
        assert len(table) == 3
        assert_indexes_mirror_heap(table)

    def test_duplicate_update_is_refused_and_changes_nothing(self, database):
        with pytest.raises(ConstraintError, match="genes.code"):
            database.execute("UPDATE genes SET code = 'c1' WHERE id = 3")
        with pytest.raises(ConstraintError, match="genes.id"):
            database.execute("UPDATE genes SET id = 1 WHERE id = 3")
        assert (database.query("SELECT id, code FROM genes WHERE id = 3")
                .rows == [(3, "c3")])
        assert_indexes_mirror_heap(database.catalog.table("genes"))

    def test_nulls_never_collide(self, database):
        database.execute("INSERT INTO genes VALUES (4, NULL, 'a')")
        database.execute("INSERT INTO genes VALUES (5, NULL, 'b')")
        database.execute("UPDATE genes SET code = NULL WHERE id = 1")
        assert database.query(
            "SELECT count(*) FROM genes WHERE code IS NULL").scalar() == 4
        assert database.query(
            "SELECT id FROM genes WHERE code = ?", [None]).rows == []
        assert_indexes_mirror_heap(database.catalog.table("genes"))

    def test_a_column_that_is_both_primary_and_unique_has_one_index(self):
        schema = TableSchema("t", [Column("id", INTEGER)],
                             primary_key="id", unique=("id",))
        table = Table(schema)
        assert list(table._indexes) == ["$t_id_key"]


class TestIndexFollowsHeap:
    def test_update_delete_truncate(self, database):
        table = database.catalog.table("genes")
        database.execute("UPDATE genes SET id = 7, code = 'c7' WHERE id = 1")
        assert_indexes_mirror_heap(table)
        assert database.query(
            "SELECT name FROM genes WHERE id = 7").scalar() == "lacZ"
        assert database.query("SELECT name FROM genes WHERE id = 1").rows == []
        database.execute("UPDATE genes SET name = 'kept' WHERE id = 7")
        assert_indexes_mirror_heap(table)
        assert database.query(
            "SELECT name FROM genes WHERE code = 'c7'").scalar() == "kept"
        database.execute("DELETE FROM genes WHERE id = 7")
        assert_indexes_mirror_heap(table)
        database.execute("INSERT INTO genes VALUES (7, 'c7', 'again')")
        assert_indexes_mirror_heap(table)
        database.execute("DELETE FROM genes")
        assert_indexes_mirror_heap(table)
        assert database.query("SELECT id FROM genes WHERE id = 7").rows == []
        database.execute("INSERT INTO genes VALUES (7, 'c7', 'reborn')")
        assert_indexes_mirror_heap(table)

    def test_rollback_and_restore(self, database):
        table = database.catalog.table("genes")
        database.begin()
        database.execute("DELETE FROM genes WHERE id = 1")
        database.execute("INSERT INTO genes VALUES (1, 'other', 'x')")
        database.execute("INSERT INTO genes VALUES (8, 'c8', 'y')")
        database.rollback()
        assert_indexes_mirror_heap(table)
        assert database.query(
            "SELECT code FROM genes WHERE id = 1").scalar() == "c1"
        assert database.query("SELECT id FROM genes WHERE id = 8").rows == []
        database.begin()
        database.execute("UPDATE genes SET id = id + 10")
        database.rollback()
        assert_indexes_mirror_heap(table)
        assert sorted(database.query("SELECT id FROM genes").column("id")) \
            == [1, 2, 3]


class TestPlannerSeesTheKey:
    def test_explain_shows_the_key_lookup_on_both_layouts(self, database):
        for column in ("id", "code"):
            plan = database.explain(
                f"SELECT name FROM genes WHERE {column} = ?")
            assert (f"IndexEqualScan(genes AS genes USING $genes_{column}_key "
                    f"ON {column} = ?; columns name)  (~1 rows)") in plan
            assert "SeqScan" not in plan and "ColumnarScan" not in plan

    def test_key_lookup_wins_over_a_secondary_index(self, database):
        database.execute("CREATE INDEX by_name ON genes (name) USING hash")
        plan = database.explain(
            "SELECT code FROM genes WHERE name = 'lacZ' AND id = 1")
        assert "USING $genes_id_key" in plan and "Filter" in plan
        assert database.query(
            "SELECT code FROM genes WHERE name = 'lacZ' AND id = 1"
        ).scalar() == "c1"

    def test_naive_planner_still_scans(self):
        naive = populated(optimize=False)
        assert "SeqScan" in naive.explain("SELECT name FROM genes WHERE id = 1")

    def test_user_index_on_the_key_column_coexists(self, database):
        database.execute("CREATE INDEX by_id ON genes (id) USING btree")
        table = database.catalog.table("genes")
        assert [index.name for index in table.indexes_on("id")] == [
            "$genes_id_key", "by_id"]
        assert "IndexRangeScan" in database.explain(
            "SELECT id FROM genes WHERE id > 1")
        assert "$genes_id_key" in database.explain(
            "SELECT id FROM genes WHERE id = 1")
        assert database.query(
            "SELECT id FROM genes WHERE id > 1").column("id") == [2, 3]
        database.execute("DROP INDEX by_id ON genes")
        assert [index.name for index in table.indexes_on("id")] == [
            "$genes_id_key"]


class TestNotAnOrdinaryIndex:
    def test_drop_index_refuses_it(self, database):
        with pytest.raises(CatalogError):
            database.execute('DROP INDEX "$genes_id_key" ON genes')
        with pytest.raises(DatabaseError, match="enforces a key"):
            database.catalog.table("genes").detach_index("$genes_id_key")
        with pytest.raises(ConstraintError):
            database.execute("INSERT INTO genes VALUES (1, 'z', 'z')")

    def test_its_name_is_outside_the_create_index_namespace(self, database):
        # Legal before keys were indexes, so images and WALs may hold it.
        database.execute("CREATE INDEX genes_id_key ON genes (name)")
        assert [d.name for d in database.index_definitions] == [
            "genes_id_key"]
        assert [index.name for index in
                database.catalog.table("genes").indexes_on("id")] == [
            "$genes_id_key"]
        database.execute("DROP INDEX genes_id_key ON genes")
        assert database.query(
            "SELECT name FROM genes WHERE id = 1").scalar() == "lacZ"

    def test_index_definitions_list_only_create_index(self, database):
        assert database.index_definitions == ()
        database.execute("CREATE INDEX by_name ON genes (name) USING hash")
        assert [definition.name
                for definition in database.index_definitions] == ["by_name"]


class TestOnDiskBytesAreUnchanged:
    """The image and WAL-record digests below were computed by this very
    script on the commit before key indexes existed; those bytes must
    not differ.  The WAL *header* line is the one thing that changed
    since (the single-format PR: ``$wal`` 2 → 3 with ``"epoch":
    null``), so it is pinned literally and apart from the records.

    ``IMAGE_SHA256`` was re-pinned once, when images began to be written
    in canonical (sorted) key order so that one dump is both the file
    and the bytes its digest covers.  Only the key order moved: the
    digest in ``SCRUB_LINES`` and the file's length are the same."""

    IMAGE_SHA256 = ("00b790be8d392d0f0a53eac11075deb7"
                    "ac9bcc440a72c3288844735b2bc4fe65")
    WAL_HEADER = (b'{"$wal": 3, "generation": 0, "epoch": null, '
                  b'"crc": 3571479099}')
    WAL_RECORDS_SHA256 = ("cbba400da803a554ef3fcb6bf1b8e6a7"
                          "b3304200da679a676f5c5b497e1a0c94")
    SCRUB_LINES = [
        "  ok   image.json               image      ok                  "
        "1 checked  digest 2badff6583cd…",
        "  ok   wal.jsonl                wal_active ok                  "
        "3 checked  ",
    ]

    @staticmethod
    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_image_wal_and_scrub(self, tmp_path):
        image, wal_path = tmp_path / "image.json", tmp_path / "wal.jsonl"
        database = populated()
        database.execute("CREATE INDEX by_name ON genes (name) USING hash")
        save_database(database, str(image))
        wal = WriteAheadLog(str(wal_path), database)
        wal.attach()
        database.execute("UPDATE genes SET code = 'c2' WHERE id = 2")
        database.execute("DELETE FROM genes WHERE id = 3")
        wal.close()
        assert self.sha256(image) == self.IMAGE_SHA256
        header, __, records = wal_path.read_bytes().partition(b"\n")
        assert header == self.WAL_HEADER
        assert hashlib.sha256(records).hexdigest() == \
            self.WAL_RECORDS_SHA256

        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = main(["scrub", "--image", str(image),
                           "--wal", str(wal_path)])
        assert status == 0
        assert printed.getvalue().splitlines()[1:] == self.SCRUB_LINES

    def test_image_round_trip_rebuilds_the_key_indexes(self, tmp_path):
        image = tmp_path / "image.json"
        database = populated()
        save_database(database, str(image))
        loaded = load_database(str(image))
        assert loaded.index_definitions == ()
        assert_indexes_mirror_heap(loaded.catalog.table("genes"))
        assert "$genes_id_key" in loaded.explain(
            "SELECT name FROM genes WHERE id = 2")
        with pytest.raises(ConstraintError):
            loaded.execute("INSERT INTO genes VALUES (2, 'dup', 'x')")
        resaved = tmp_path / "again.json"
        save_database(loaded, str(resaved))
        assert resaved.read_bytes() == image.read_bytes()

