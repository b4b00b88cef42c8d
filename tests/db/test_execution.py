"""End-to-end tests of SQL execution: DML, SELECT, NULL semantics."""

import pytest

from repro.db import Database, NULL
from repro.errors import (
    CatalogError,
    ConstraintError,
    DatabaseError,
    SqlSyntaxError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
        "organism TEXT, length INTEGER)"
    )
    database.execute(
        "INSERT INTO genes VALUES "
        "(1, 'lacZ', 'E. coli', 3075), "
        "(2, 'trpA', 'E. coli', 804), "
        "(3, 'GAL4', 'yeast', 2646), "
        "(4, 'mys', NULL, NULL)"
    )
    return database


class TestBasicSelect:
    def test_select_star(self, db):
        result = db.query("SELECT * FROM genes")
        assert len(result) == 4
        assert result.columns == ["id", "name", "organism", "length"]

    def test_projection_and_alias(self, db):
        result = db.query("SELECT name AS gene_name FROM genes WHERE id = 1")
        assert result.columns == ["gene_name"]
        assert result.scalar() == "lacZ"

    def test_expression_projection(self, db):
        assert db.query(
            "SELECT length / 3 FROM genes WHERE id = 2"
        ).scalar() == 268

    def test_where_filtering(self, db):
        result = db.query("SELECT id FROM genes WHERE organism = 'E. coli'")
        assert sorted(r[0] for r in result) == [1, 2]

    def test_order_by(self, db):
        result = db.query(
            "SELECT name FROM genes WHERE length IS NOT NULL "
            "ORDER BY length DESC"
        )
        assert result.column("name") == ["lacZ", "GAL4", "trpA"]

    def test_order_by_mixed_directions(self, db):
        result = db.query(
            "SELECT name FROM genes ORDER BY organism ASC, length DESC"
        )
        # NULL organism sorts first.
        assert result.column("name")[0] == "mys"

    def test_limit_offset(self, db):
        result = db.query("SELECT id FROM genes ORDER BY id LIMIT 2 OFFSET 1")
        assert result.column("id") == [2, 3]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT organism FROM genes")
        assert len(result) == 3  # E. coli, yeast, NULL

    def test_select_without_from(self, db):
        assert db.query("SELECT 6 * 7").scalar() == 42

    def test_like(self, db):
        result = db.query("SELECT name FROM genes WHERE name LIKE '%A%'")
        assert sorted(result.column("name")) == ["GAL4", "trpA"]
        result = db.query("SELECT name FROM genes WHERE name LIKE 'la__'")
        assert result.column("name") == ["lacZ"]

    def test_in_list(self, db):
        result = db.query("SELECT name FROM genes WHERE id IN (1, 3)")
        assert sorted(result.column("name")) == ["GAL4", "lacZ"]

    def test_between(self, db):
        result = db.query(
            "SELECT name FROM genes WHERE length BETWEEN 800 AND 3000"
        )
        assert sorted(result.column("name")) == ["GAL4", "trpA"]

    def test_parameters(self, db):
        result = db.query("SELECT name FROM genes WHERE id = ?", [2])
        assert result.scalar() == "trpA"

    def test_missing_parameter_reported(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT name FROM genes WHERE id = ?")

    def test_unknown_column(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query("SELECT nope FROM genes")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM nope")


class TestNullSemantics:
    def test_null_comparison_filters_row(self, db):
        # organism = NULL is unknown, never true.
        result = db.query("SELECT id FROM genes WHERE organism = NULL")
        assert len(result) == 0

    def test_is_null(self, db):
        result = db.query("SELECT id FROM genes WHERE organism IS NULL")
        assert result.column("id") == [4]

    def test_is_not_null(self, db):
        result = db.query("SELECT count(*) FROM genes "
                          "WHERE organism IS NOT NULL")
        assert result.scalar() == 3

    def test_null_arithmetic_propagates(self, db):
        result = db.query("SELECT length + 1 FROM genes WHERE id = 4")
        assert result.scalar() is NULL

    def test_not_in_with_null_is_unknown(self, db):
        # id NOT IN (1, NULL) can never be true.
        result = db.query("SELECT id FROM genes WHERE id NOT IN (1, NULL)")
        assert len(result) == 0

    def test_coalesce(self, db):
        result = db.query(
            "SELECT coalesce(organism, 'n/a') FROM genes WHERE id = 4"
        )
        assert result.scalar() == "n/a"

    def test_division_by_zero_yields_null(self, db):
        assert db.query("SELECT 1 / 0").scalar() is NULL


class TestDml:
    def test_insert_returns_count(self, db):
        assert db.execute(
            "INSERT INTO genes VALUES (5, 'x', 'E. coli', 10)"
        ) == 1

    def test_insert_with_columns_uses_defaults(self, db):
        db.execute("INSERT INTO genes (id, name) VALUES (6, 'y')")
        result = db.query("SELECT organism FROM genes WHERE id = 6")
        assert result.scalar() is NULL

    def test_insert_column_count_mismatch(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO genes (id, name) VALUES (7)")

    def test_primary_key_violation(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO genes VALUES (1, 'dup', NULL, NULL)")

    def test_not_null_violation(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO genes VALUES (9, NULL, NULL, NULL)")

    def test_update(self, db):
        count = db.execute(
            "UPDATE genes SET length = length * 2 WHERE organism = 'E. coli'"
        )
        assert count == 2
        assert db.query(
            "SELECT length FROM genes WHERE id = 1"
        ).scalar() == 6150

    def test_update_all(self, db):
        assert db.execute("UPDATE genes SET organism = 'x'") == 4

    def test_delete(self, db):
        assert db.execute("DELETE FROM genes WHERE length < 1000") == 1
        assert db.query("SELECT count(*) FROM genes").scalar() == 3

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM genes") == 4

    def test_executemany(self, db):
        total = db.executemany(
            "INSERT INTO genes (id, name) VALUES (?, ?)",
            [(10, "a"), (11, "b"), (12, "c")],
        )
        assert total == 3

    def test_query_rejects_non_select(self, db):
        with pytest.raises(DatabaseError):
            db.query("DELETE FROM genes")


class TestDdl:
    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE genes (id INTEGER)")

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS genes (id INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE genes")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM genes")

    def test_drop_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")

    def test_two_primary_keys_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute(
                "CREATE TABLE bad (a INTEGER PRIMARY KEY, "
                "b INTEGER PRIMARY KEY)"
            )

    def test_unknown_type(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE bad (a WIDGET)")

    def test_unique_constraint_via_ddl(self, db):
        db.execute("CREATE TABLE u (a INTEGER UNIQUE)")
        db.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO u VALUES (1)")


class TestResultSet:
    def test_scalar_requires_single_cell(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT * FROM genes").scalar()

    def test_first_on_empty(self, db):
        assert db.query("SELECT * FROM genes WHERE id = 99").first() is None

    def test_to_dicts(self, db):
        dicts = db.query("SELECT id, name FROM genes WHERE id = 1").to_dicts()
        assert dicts == [{"id": 1, "name": "lacZ"}]

    def test_unknown_output_column(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT id FROM genes").column("nope")

    def test_pretty_renders(self, db):
        text = db.query("SELECT id, name FROM genes ORDER BY id").pretty()
        assert "lacZ" in text
        assert "|" in text

    def test_pretty_truncates(self, db):
        text = db.query("SELECT id FROM genes").pretty(max_rows=2)
        assert "more rows" in text


class TestFrameMemo:
    """``RowContext.resolve`` memoises ``(table, column) -> slot`` on the
    frame; ambiguous and unknown names answer exactly as before."""

    @staticmethod
    def _contexts():
        from repro.db.sql.expressions import Frame, RowContext
        outer = RowContext(Frame([("o", "x"), ("o", "only_outer")]),
                           (10, 11))
        frame = Frame([("a", "x"), ("a", "y"), ("b", "y"), (None, "k")])
        return frame, [RowContext(frame, row, (), outer)
                       for row in ((1, 2, 3, 4), (5, 6, 7, 8))]

    def test_every_row_resolves_alike_once_memoised(self):
        frame, (first, second) = self._contexts()
        for context, row in ((first, (1, 2, 3, 4)), (second, (5, 6, 7, 8)),
                             (first, (1, 2, 3, 4))):
            assert context.resolve(None, "x") == row[0]
            assert context.resolve("a", "x") == row[0]
            assert context.resolve("a", "y") == row[1]
            assert context.resolve("b", "y") == row[2]
            assert context.resolve(None, "k") == row[3]
        assert frame.memo[None, "x"] == 0 and frame.memo["b", "y"] == 2

    def test_ambiguous_names_keep_their_error_every_time(self):
        _, (first, second) = self._contexts()
        for context in (first, second, first):
            with pytest.raises(SqlSyntaxError,
                               match="ambiguous column reference 'y'"):
                context.resolve(None, "y")

    def test_names_not_in_the_frame_fall_through_to_the_outer_row(self):
        _, (first, second) = self._contexts()
        for context in (first, second, first):
            assert context.resolve(None, "only_outer") == 11
            assert context.resolve("o", "x") == 10
            with pytest.raises(SqlSyntaxError, match="unknown column nope"):
                context.resolve(None, "nope")
            with pytest.raises(SqlSyntaxError,
                               match="unknown column a.nope"):
                context.resolve("a", "nope")
            # A slot without a binding never answers a qualified name.
            with pytest.raises(SqlSyntaxError, match="unknown column a.k"):
                context.resolve("a", "k")

    def test_joined_query_errors_are_unchanged(self, db):
        db.execute("CREATE TABLE other (id INTEGER, name TEXT)")
        db.execute("INSERT INTO other VALUES (1, 'x')")
        for _ in range(2):  # second run: cached plan, warm memo
            with pytest.raises(SqlSyntaxError, match="ambiguous"):
                db.execute("SELECT id FROM genes JOIN other "
                           "ON genes.id = other.id")
            with pytest.raises(SqlSyntaxError, match="unknown column"):
                db.execute("SELECT missing FROM genes")
