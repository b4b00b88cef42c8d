"""Tests for the SQL lexer and parser."""

import pytest

from repro.db.sql import ast
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse
from repro.errors import SqlSyntaxError


class TestLexer:
    def test_keywords_uppercased(self):
        tokens = tokenize("select FROM Where")
        assert [t.text for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_lowercased(self):
        tokens = tokenize("Genes")
        assert tokens[0].text == "genes"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'abc")

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.14"

    def test_two_char_operators(self):
        tokens = tokenize("<= >= != <>")
        assert [t.text for t in tokens[:4]] == ["<=", ">=", "!=", "<>"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert tokens[0].text == "SELECT"
        assert tokens[1].text == "1"

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].text == "weird name"

    def test_parameter(self):
        tokens = tokenize("?")
        assert tokens[0].kind == "PARAMETER"

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


class TestSelectParsing:
    def test_minimal(self):
        statement = parse("SELECT 1")
        assert isinstance(statement, ast.Select)
        assert statement.source is None

    def test_star(self):
        statement = parse("SELECT * FROM genes")
        assert statement.items[0].is_star
        assert statement.source.name == "genes"

    def test_aliases(self):
        statement = parse("SELECT name AS n, id i FROM genes g")
        assert statement.items[0].alias == "n"
        assert statement.items[1].alias == "i"
        assert statement.source.alias == "g"

    def test_joins(self):
        statement = parse(
            "SELECT * FROM a JOIN b ON a.x = b.y "
            "LEFT JOIN c ON b.y = c.z"
        )
        assert len(statement.joins) == 2
        assert statement.joins[0].kind == "inner"
        assert statement.joins[1].kind == "left"

    def test_inner_keyword(self):
        statement = parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert statement.joins[0].kind == "inner"

    def test_left_outer(self):
        statement = parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
        assert statement.joins[0].kind == "left"

    def test_group_by_having(self):
        statement = parse(
            "SELECT organism, count(*) FROM genes "
            "GROUP BY organism HAVING count(*) > 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_limit_offset(self):
        statement = parse(
            "SELECT * FROM genes ORDER BY name DESC, id LIMIT 5 OFFSET 2"
        )
        assert not statement.order_by[0].ascending
        assert statement.order_by[1].ascending
        assert statement.limit == 5
        assert statement.offset == 2

    def test_distinct(self):
        assert parse("SELECT DISTINCT name FROM genes").distinct

    def test_where_precedence(self):
        statement = parse("SELECT 1 WHERE TRUE OR FALSE AND FALSE")
        # AND binds tighter: OR(TRUE, AND(FALSE, FALSE)).
        assert isinstance(statement.where, ast.Binary)
        assert statement.where.operator == "OR"

    def test_arithmetic_precedence(self):
        statement = parse("SELECT 1 + 2 * 3")
        expression = statement.items[0].expression
        assert expression.operator == "+"
        assert expression.right.operator == "*"

    def test_in_list(self):
        statement = parse("SELECT 1 WHERE 2 IN (1, 2, 3)")
        assert isinstance(statement.where, ast.InList)

    def test_not_in_subquery(self):
        statement = parse("SELECT 1 WHERE 2 NOT IN (SELECT id FROM t)")
        assert isinstance(statement.where, ast.InSelect)
        assert statement.where.negated

    def test_exists(self):
        statement = parse("SELECT 1 WHERE EXISTS (SELECT 1)")
        assert isinstance(statement.where, ast.Exists)

    def test_between(self):
        statement = parse("SELECT 1 WHERE 5 BETWEEN 1 AND 10")
        assert isinstance(statement.where, ast.Between)

    def test_is_not_null(self):
        statement = parse("SELECT 1 WHERE 1 IS NOT NULL")
        assert isinstance(statement.where, ast.IsNull)
        assert statement.where.negated

    def test_like(self):
        statement = parse("SELECT 1 WHERE 'abc' LIKE 'a%'")
        assert statement.where.operator == "LIKE"

    def test_function_star(self):
        statement = parse("SELECT count(*) FROM t")
        call = statement.items[0].expression
        assert call.star

    def test_parameters_numbered(self):
        statement = parse("SELECT ? WHERE ? = ?")
        assert statement.items[0].expression.index == 0
        assert statement.where.left.index == 1
        assert statement.where.right.index == 2

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT 1 FROM t zzz yyy")

    def test_semicolon_allowed(self):
        parse("SELECT 1;")


class TestDdlDmlParsing:
    def test_create_table(self):
        statement = parse(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, "
            "name TEXT NOT NULL UNIQUE, organism VARCHAR(80) "
            "DEFAULT 'unknown')"
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert statement.columns[1].unique
        assert statement.columns[2].default.value == "unknown"

    def test_create_table_if_not_exists(self):
        statement = parse("CREATE TABLE IF NOT EXISTS t (id INT)")
        assert statement.if_not_exists

    def test_create_index(self):
        statement = parse(
            "CREATE INDEX i ON t (c) USING kmer WITH (k = 6)"
        )
        assert isinstance(statement, ast.CreateIndex)
        assert statement.using == "kmer"
        assert statement.parameters == {"k": 6}

    def test_create_index_default_btree(self):
        assert parse("CREATE INDEX i ON t (c)").using == "btree"

    def test_drop_statements(self):
        assert isinstance(parse("DROP TABLE IF EXISTS t"), ast.DropTable)
        statement = parse("DROP INDEX i ON t")
        assert isinstance(statement, ast.DropIndex)

    def test_insert(self):
        statement = parse(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, ast.Insert)
        assert statement.columns == ["a", "b"]
        assert len(statement.rows) == 2

    def test_insert_without_columns(self):
        statement = parse("INSERT INTO t VALUES (1)")
        assert statement.columns is None

    def test_update(self):
        statement = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert isinstance(statement, ast.Update)
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE id = 3")
        assert isinstance(statement, ast.Delete)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None

    def test_garbage_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse("FROBNICATE THE database")


@pytest.mark.parametrize("sql, what, token, position", [
    ("SELECT x FROM t LIMIT 2.5", "LIMIT", "2.5", 22),
    ("SELECT x FROM t LIMIT 1 OFFSET 1.5", "OFFSET", "1.5", 31),
    ("CREATE INDEX i ON t (x) USING kmer WITH (k = 2.5)",
     "index parameter 'k'", "2.5", 45),
])
def test_a_fractional_count_is_a_syntax_error(sql, what, token, position):
    # Each used to escape as ``ValueError: invalid literal for int()``.
    with pytest.raises(SqlSyntaxError) as caught:
        parse(sql)
    assert str(caught.value) == (f"{what} needs a whole number "
                                 f"(near {token!r} at position {position})")
    assert parse(sql.replace(token, "3")) is not None
