"""Tests for joins, subqueries, grouping and aggregates."""

import pytest

from repro.db import Database, NULL, SqlAggregate
from repro.errors import SqlSyntaxError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT, "
        "organism TEXT, length INTEGER)"
    )
    database.execute(
        "INSERT INTO genes VALUES "
        "(1, 'lacZ', 'E. coli', 3075), (2, 'trpA', 'E. coli', 804), "
        "(3, 'GAL4', 'yeast', 2646), (4, 'CDC28', 'yeast', 894)"
    )
    database.execute(
        "CREATE TABLE proteins (id INTEGER PRIMARY KEY, gene_id INTEGER, "
        "mass REAL)"
    )
    database.execute(
        "INSERT INTO proteins VALUES (10, 1, 116.4), (11, 3, 99.5), "
        "(12, 1, 58.1)"
    )
    return database


class TestJoins:
    def test_inner_join(self, db):
        result = db.query(
            "SELECT g.name, p.mass FROM genes g "
            "JOIN proteins p ON g.id = p.gene_id ORDER BY p.mass"
        )
        assert result.rows == [("GAL4", 99.5), ("lacZ", 116.4),
                               ("lacZ", 58.1)] or \
            result.rows == [("lacZ", 58.1), ("GAL4", 99.5), ("lacZ", 116.4)]

    def test_inner_join_row_count(self, db):
        result = db.query(
            "SELECT g.id FROM genes g JOIN proteins p ON g.id = p.gene_id"
        )
        assert len(result) == 3

    def test_left_join_pads_nulls(self, db):
        result = db.query(
            "SELECT g.name, p.mass FROM genes g "
            "LEFT JOIN proteins p ON g.id = p.gene_id "
            "WHERE g.name = 'trpA'"
        )
        assert result.rows == [("trpA", NULL)]

    def test_left_join_preserves_all_left_rows(self, db):
        result = db.query(
            "SELECT g.id FROM genes g LEFT JOIN proteins p "
            "ON g.id = p.gene_id"
        )
        assert len(result) == 5  # 3 matches + 2 unmatched genes

    def test_join_with_extra_condition(self, db):
        result = db.query(
            "SELECT g.name FROM genes g JOIN proteins p "
            "ON g.id = p.gene_id AND p.mass > 100"
        )
        assert result.column("name") == ["lacZ"]

    def test_non_equi_join_falls_back(self, db):
        result = db.query(
            "SELECT g.id, p.id FROM genes g JOIN proteins p "
            "ON g.id < p.gene_id WHERE p.id = 11"
        )
        assert sorted(row[0] for row in result) == [1, 2]

    def test_self_join_with_aliases(self, db):
        result = db.query(
            "SELECT a.name, b.name FROM genes a JOIN genes b "
            "ON a.organism = b.organism AND a.id < b.id"
        )
        assert sorted(result.rows) == [("GAL4", "CDC28"), ("lacZ", "trpA")]

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query("SELECT 1 FROM genes g JOIN proteins g ON 1 = 1")

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE notes (gene_id INTEGER, note TEXT)")
        db.execute("INSERT INTO notes VALUES (1, 'essential')")
        result = db.query(
            "SELECT g.name, p.mass, n.note FROM genes g "
            "JOIN proteins p ON g.id = p.gene_id "
            "JOIN notes n ON n.gene_id = g.id"
        )
        assert len(result) == 2
        assert all(row[2] == "essential" for row in result)


class TestSubqueries:
    def test_in_subquery(self, db):
        result = db.query(
            "SELECT name FROM genes WHERE id IN "
            "(SELECT gene_id FROM proteins)"
        )
        assert sorted(result.column("name")) == ["GAL4", "lacZ"]

    def test_not_in_subquery(self, db):
        result = db.query(
            "SELECT name FROM genes WHERE id NOT IN "
            "(SELECT gene_id FROM proteins)"
        )
        assert sorted(result.column("name")) == ["CDC28", "trpA"]

    def test_correlated_exists(self, db):
        result = db.query(
            "SELECT name FROM genes g WHERE EXISTS "
            "(SELECT 1 FROM proteins p WHERE p.gene_id = g.id)"
        )
        assert sorted(result.column("name")) == ["GAL4", "lacZ"]

    def test_correlated_not_exists(self, db):
        result = db.query(
            "SELECT name FROM genes g WHERE NOT EXISTS "
            "(SELECT 1 FROM proteins p WHERE p.gene_id = g.id)"
        )
        assert sorted(result.column("name")) == ["CDC28", "trpA"]

    def test_in_subquery_must_be_single_column(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query(
                "SELECT 1 WHERE 1 IN (SELECT id, gene_id FROM proteins)"
            )


class TestAggregates:
    def test_count_star(self, db):
        assert db.query("SELECT count(*) FROM genes").scalar() == 4

    def test_count_column_skips_nulls(self, db):
        db.execute("INSERT INTO genes VALUES (9, 'x', NULL, NULL)")
        assert db.query("SELECT count(organism) FROM genes").scalar() == 4

    def test_sum_avg_min_max(self, db):
        row = db.query(
            "SELECT sum(length), avg(length), min(length), max(length) "
            "FROM genes"
        ).first()
        assert row == (7419, 7419 / 4, 804, 3075)

    def test_aggregates_on_empty_input(self, db):
        row = db.query(
            "SELECT count(*), sum(length) FROM genes WHERE id > 100"
        ).first()
        assert row == (0, NULL)

    def test_group_by(self, db):
        result = db.query(
            "SELECT organism, count(*) AS n FROM genes "
            "GROUP BY organism ORDER BY organism"
        )
        assert result.rows == [("E. coli", 2), ("yeast", 2)]

    def test_group_by_expression(self, db):
        result = db.query(
            "SELECT length % 2, count(*) FROM genes GROUP BY length % 2"
        )
        assert len(result) == 2

    def test_having(self, db):
        result = db.query(
            "SELECT organism FROM genes GROUP BY organism "
            "HAVING avg(length) > 1500"
        )
        assert sorted(result.column("organism")) == ["E. coli", "yeast"]
        result = db.query(
            "SELECT organism FROM genes GROUP BY organism "
            "HAVING min(length) > 850"
        )
        assert result.column("organism") == ["yeast"]

    def test_order_by_aggregate(self, db):
        result = db.query(
            "SELECT organism FROM genes GROUP BY organism "
            "ORDER BY sum(length) DESC"
        )
        assert result.column("organism") == ["E. coli", "yeast"]

    def test_mixed_group_key_and_aggregate_expression(self, db):
        result = db.query(
            "SELECT organism, max(length) - min(length) AS spread "
            "FROM genes GROUP BY organism ORDER BY organism"
        )
        assert result.rows == [("E. coli", 2271), ("yeast", 1752)]

    def test_aggregate_outside_grouping_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query("SELECT name FROM genes WHERE count(*) > 1")

    def test_a_malformed_aggregate_is_refused_once_a_group_needs_it(
            self, db):
        for sql in ("SELECT sum(*) FROM genes WHERE id = 1",
                    "SELECT max(id, length) FROM genes WHERE id = 1"):
            with pytest.raises(SqlSyntaxError):
                db.query(sql)
        # Grouped, over no rows: no group ever asks for its state.
        assert db.query("SELECT organism, sum(*) FROM genes WHERE id > 100 "
                        "GROUP BY organism").rows == []

    def test_having_without_group_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query("SELECT name FROM genes HAVING 1 = 1")

    def test_global_aggregate_with_join(self, db):
        assert db.query(
            "SELECT count(*) FROM genes g JOIN proteins p "
            "ON g.id = p.gene_id"
        ).scalar() == 3

    def test_custom_aggregate(self, db):
        db.register_aggregate(SqlAggregate(
            name="concat_names",
            initial=lambda: [],
            step=lambda state, value: state + [value],
            final=lambda state: ",".join(sorted(state)),
        ))
        result = db.query(
            "SELECT organism, concat_names(name) FROM genes "
            "GROUP BY organism ORDER BY organism"
        )
        assert result.rows == [("E. coli", "lacZ,trpA"),
                               ("yeast", "CDC28,GAL4")]
