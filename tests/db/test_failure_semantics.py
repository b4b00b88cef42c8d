"""Failure-injection tests: what happens when things go wrong mid-query."""

import pytest

from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.db.storage import WriteAheadLog, checkpoint
from repro.errors import ConstraintError, DatabaseError, TypeCheckError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"
    )
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


class TestUdfFailures:
    def test_raising_udf_is_wrapped(self, db):
        def explode(value):
            raise ValueError("boom")

        db.register_function("explode", explode)
        with pytest.raises(DatabaseError) as excinfo:
            db.query("SELECT explode(v) FROM t")
        assert "boom" in str(excinfo.value)

    def test_udf_failure_in_where_aborts_cleanly(self, db):
        calls = []

        def sometimes(value):
            calls.append(value)
            if value == 20:
                raise RuntimeError("bad row")
            return True

        db.register_function("sometimes", sometimes)
        with pytest.raises(DatabaseError):
            db.query("SELECT id FROM t WHERE sometimes(v)")
        # The table is untouched by a failed read.
        assert db.query("SELECT count(*) FROM t").scalar() == 2

    def test_udf_failure_during_update_leaves_partial_visible(self, db):
        """A failed statement undoes itself (see TestStatementAtomicity);
        rollback then restores whatever the transaction did before it."""
        def guard(value):
            if value == 20:
                raise RuntimeError("no")
            return value + 1

        db.register_function("guard", guard)
        db.begin()
        with pytest.raises(DatabaseError):
            db.execute("UPDATE t SET v = guard(v)")
        db.rollback()
        assert sorted(db.query("SELECT v FROM t").column("v")) == [10, 20]


class TestAggregateTypeErrors:
    """``sum``/``avg`` over values ``+`` does not take is a structured
    error naming the aggregate and the value — not a bare TypeError —
    on the row path, the columnar path and the page-at-a-time fold."""

    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    @pytest.mark.parametrize("tail", ["", " WHERE id > 0", " GROUP BY id"])
    def test_sum_of_text_is_a_type_check_error(self, layout, aggregate,
                                               tail):
        database = Database(layout=layout, page_rows=2)
        database.execute("CREATE TABLE t (id INTEGER, g TEXT)")
        database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        with pytest.raises(TypeCheckError) as excinfo:
            database.query(f"SELECT {aggregate}(g) FROM t{tail}")
        assert aggregate in str(excinfo.value)
        assert "'a'" in str(excinfo.value) or "'b'" in str(excinfo.value)

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_other_aggregates_of_text_are_unaffected(self, layout):
        database = Database(layout=layout, page_rows=2)
        database.execute("CREATE TABLE t (id INTEGER, g TEXT)")
        database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)")
        assert database.query(
            "SELECT min(g), max(g), count(g), count(*) FROM t"
        ).rows == [("a", "b", 2, 3)]


class TestMultiRowInsertAtomicity:
    def test_partial_insert_without_transaction(self, db):
        # The second row violates the primary key; the first lands first
        # and is taken back.  (Until PR 21 row 3 stayed, and the primary
        # then held a row its own log and every follower did not.)
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (3, 30), (1, 99)")
        assert db.query("SELECT id, v FROM t").rows == [(1, 10), (2, 20)]

    def test_transaction_makes_multi_insert_atomic(self, db):
        db.begin()
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (3, 30), (1, 99)")
        db.rollback()
        assert db.query("SELECT count(*) FROM t").scalar() == 2

    def test_type_error_in_values(self, db):
        with pytest.raises(TypeCheckError):
            db.execute("INSERT INTO t VALUES ('x', 1)")


FAILING_STATEMENTS = (
    # The second row reaches for the key the third still holds.
    ("UPDATE t SET id = id + 1", ConstraintError),
    ("UPDATE t SET id = id + 1 WHERE id >= 1", ConstraintError),
    ("UPDATE t SET v = check_v(v)", DatabaseError),
    ("INSERT INTO t VALUES (7, 70), (8, 80), (1, 99)", ConstraintError),
    ("INSERT INTO t VALUES (7, 70), ('x', 1)", TypeCheckError),
)


class TestStatementAtomicity:
    """One DML statement changes every row it names or none — so the
    primary never holds what its log (which records whole statements,
    after they succeed) and its followers do not."""

    @pytest.fixture(params=[{"layout": "row"}, {"layout": "row",
                                                "optimize": False},
                            {"layout": "column", "page_rows": 2}],
                    ids=["row", "row-naive", "column"])
    def logged(self, request, tmp_path):
        database = Database(**request.param)

        def check_v(value):
            if value == 10:
                raise RuntimeError("no")
            return value + 1

        database.register_function("check_v", check_v)
        wal = WriteAheadLog(str(tmp_path / "db.wal"), database)
        wal.attach()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        database.execute("CREATE INDEX t_v ON t (v) USING btree")
        checkpoint(database, str(tmp_path / "db.img"), wal)
        database.execute("INSERT INTO t VALUES (5, 50), (1, 10), (2, 20)")
        yield database, str(tmp_path / "db.img"), str(tmp_path / "db.wal")
        wal.close()

    @staticmethod
    def _state(database):
        # Through the heap and through both indexes.
        return (database.query("SELECT id, v FROM t").rows,
                [database.query("SELECT v FROM t WHERE id = ?", [key]).rows
                 for key in (1, 2, 5, 6, 7, 8)],
                database.query("SELECT id FROM t WHERE v >= 0").rows)

    @pytest.mark.parametrize("sql,error", FAILING_STATEMENTS)
    def test_a_failed_statement_changes_nothing(self, logged, sql, error):
        database, image, wal = logged
        before = self._state(database)
        with pytest.raises(error):
            database.execute(sql)
        assert self._state(database) == before
        assert before[0] == [(5, 50), (1, 10), (2, 20)]
        recovered, report = recover(image, wal)
        assert report.statements_applied == 1
        assert databases_equal(database, recovered)

    @pytest.mark.parametrize("sql,error", FAILING_STATEMENTS)
    def test_inside_a_transaction_only_the_failed_statement_is_undone(
            self, logged, sql, error):
        database, image, wal = logged
        database.begin()
        database.execute("UPDATE t SET v = v + 1 WHERE id = 5")
        before = self._state(database)
        with pytest.raises(error):
            database.execute(sql)
        assert self._state(database) == before
        database.commit()
        assert databases_equal(database, recover(image, wal)[0])


class TestRecoveryAfterErrors:
    def test_engine_usable_after_failed_statement(self, db):
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1, 1)")  # duplicate key
        db.execute("INSERT INTO t VALUES (5, 50)")
        assert db.query("SELECT count(*) FROM t").scalar() == 3

    def test_index_consistent_after_failed_insert(self, db):
        db.execute("CREATE INDEX iv ON t (v) USING hash")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1, 77)")
        # The failed row's value must not be findable via the index.
        assert len(db.query("SELECT id FROM t WHERE v = 77")) == 0

    def test_transaction_state_clear_after_rollback(self, db):
        db.begin()
        db.execute("DELETE FROM t")
        db.rollback()
        db.begin()  # must not raise "already active"
        db.commit()
