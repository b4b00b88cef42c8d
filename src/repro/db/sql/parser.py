"""Recursive-descent parser for the SQL subset.

Grammar highlights (case-insensitive keywords):

- ``CREATE TABLE t (col TYPE [NOT NULL] [PRIMARY KEY] [UNIQUE] [DEFAULT lit], …)``
- ``CREATE INDEX i ON t (col) [USING btree|hash|kmer|suffix] [WITH (k = 8)]``
- ``DROP TABLE [IF EXISTS] t`` / ``DROP INDEX [IF EXISTS] i ON t``
- ``INSERT INTO t [(cols)] VALUES (…), (…)``
- ``UPDATE t SET c = e, … [WHERE e]`` / ``DELETE FROM t [WHERE e]``
- ``SELECT [DISTINCT] items FROM t [alias] [[LEFT] JOIN t2 ON e]*
  [WHERE e] [GROUP BY e, … [HAVING e]] [ORDER BY e [ASC|DESC], …]
  [LIMIT n [OFFSET m]]``
- expressions with ``AND/OR/NOT``, comparisons, ``LIKE``, ``IS [NOT] NULL``,
  ``[NOT] BETWEEN``, ``[NOT] IN (list | subquery)``, ``EXISTS (subquery)``,
  arithmetic, function calls (built-ins, UDFs, aggregates), ``?`` parameters.
"""

from __future__ import annotations

from repro.db.sql import ast
from repro.db.sql.lexer import (
    END,
    IDENTIFIER,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PARAMETER,
    STRING,
    Token,
    tokenize,
)
from repro.errors import SqlSyntaxError

_COMPARISONS = ("=", "!=", "<>", "<", "<=", ">", ">=")


class Parser:
    """One-statement SQL parser."""

    def __init__(self, sql: str) -> None:
        self._tokens = tokenize(sql)
        self._position = 0
        self._parameter_count = 0
        self._sql = sql

    # -- token plumbing ----------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != END:
            self._position += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message} (near {token.text!r} at position {token.position})"
        )

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._peek().matches(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            wanted = text or kind
            raise self._error(f"expected {wanted!r}")
        return token

    def _expect_identifier(self) -> str:
        return self._expect(IDENTIFIER).text

    def _expect_count(self, what: str) -> int:
        """A whole number: ``LIMIT 2.5`` is a syntax error like any other."""
        if not (self._peek().matches(NUMBER) and self._peek().text.isdigit()):
            raise self._error(f"{what} needs a whole number")
        return int(self._advance().text)

    # -- entry point ----------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        statement = self._statement()
        self._accept(OPERATOR, ";")
        if not self._peek().matches(END):
            raise self._error("trailing input after statement")
        statement.parameter_count = self._parameter_count
        return statement

    def _statement(self) -> ast.Statement:
        token = self._peek()
        if token.matches(KEYWORD, "SELECT"):
            return self._select()
        if token.matches(KEYWORD, "CREATE"):
            return self._create()
        if token.matches(KEYWORD, "DROP"):
            return self._drop()
        if token.matches(KEYWORD, "INSERT"):
            return self._insert()
        if token.matches(KEYWORD, "UPDATE"):
            return self._update()
        if token.matches(KEYWORD, "DELETE"):
            return self._delete()
        if token.matches(KEYWORD, "ANALYZE"):
            self._advance()
            return ast.Analyze(self._expect_identifier())
        raise self._error("expected a statement")

    # -- DDL ---------------------------------------------------------------------------

    def _if_not_exists(self) -> bool:
        if self._accept(KEYWORD, "IF"):
            self._expect(KEYWORD, "NOT")
            self._expect(KEYWORD, "EXISTS")
            return True
        return False

    def _create(self) -> ast.Statement:
        self._expect(KEYWORD, "CREATE")
        if self._accept(KEYWORD, "TABLE"):
            if_not_exists = self._if_not_exists()
            name = self._expect_identifier()
            self._expect(OPERATOR, "(")
            columns = [self._column_def()]
            while self._accept(OPERATOR, ","):
                columns.append(self._column_def())
            self._expect(OPERATOR, ")")
            return ast.CreateTable(name, columns, if_not_exists)
        if self._accept(KEYWORD, "INDEX"):
            if_not_exists = self._if_not_exists()
            name = self._expect_identifier()
            self._expect(KEYWORD, "ON")
            table = self._expect_identifier()
            self._expect(OPERATOR, "(")
            column = self._expect_identifier()
            self._expect(OPERATOR, ")")
            using = "btree"
            if self._accept(KEYWORD, "USING"):
                using = self._expect_identifier()
            parameters: dict[str, int] = {}
            if self._accept(KEYWORD, "WITH"):
                self._expect(OPERATOR, "(")
                while True:
                    key = self._expect_identifier()
                    self._expect(OPERATOR, "=")
                    parameters[key] = self._expect_count(
                        f"index parameter {key!r}")
                    if not self._accept(OPERATOR, ","):
                        break
                self._expect(OPERATOR, ")")
            return ast.CreateIndex(
                name, table, column, using, parameters, if_not_exists
            )
        raise self._error("expected TABLE or INDEX after CREATE")

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        type_name = self._expect_identifier()
        # Swallow a parenthesized length, e.g. VARCHAR(80).
        if self._accept(OPERATOR, "("):
            self._expect(NUMBER)
            self._expect(OPERATOR, ")")
        definition = ast.ColumnDef(name, type_name)
        while True:
            if self._accept(KEYWORD, "NOT"):
                self._expect(KEYWORD, "NULL")
                definition.not_null = True
            elif self._accept(KEYWORD, "PRIMARY"):
                self._expect(KEYWORD, "KEY")
                definition.primary_key = True
            elif self._accept(KEYWORD, "UNIQUE"):
                definition.unique = True
            elif self._accept(KEYWORD, "DEFAULT"):
                definition.default = self._literal()
            else:
                return definition

    def _drop(self) -> ast.Statement:
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "TABLE"):
            if_exists = bool(self._accept(KEYWORD, "IF"))
            if if_exists:
                self._expect(KEYWORD, "EXISTS")
            return ast.DropTable(self._expect_identifier(), if_exists)
        if self._accept(KEYWORD, "INDEX"):
            if_exists = bool(self._accept(KEYWORD, "IF"))
            if if_exists:
                self._expect(KEYWORD, "EXISTS")
            name = self._expect_identifier()
            self._expect(KEYWORD, "ON")
            table = self._expect_identifier()
            return ast.DropIndex(name, table, if_exists)
        raise self._error("expected TABLE or INDEX after DROP")

    # -- DML -----------------------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._expect_identifier()
        columns: list[str] | None = None
        if self._accept(OPERATOR, "("):
            columns = [self._expect_identifier()]
            while self._accept(OPERATOR, ","):
                columns.append(self._expect_identifier())
            self._expect(OPERATOR, ")")
        self._expect(KEYWORD, "VALUES")
        rows = [self._value_row()]
        while self._accept(OPERATOR, ","):
            rows.append(self._value_row())
        return ast.Insert(table, columns, rows)

    def _value_row(self) -> list[ast.Expression]:
        self._expect(OPERATOR, "(")
        row = [self._expression()]
        while self._accept(OPERATOR, ","):
            row.append(self._expression())
        self._expect(OPERATOR, ")")
        return row

    def _update(self) -> ast.Update:
        self._expect(KEYWORD, "UPDATE")
        table = self._expect_identifier()
        self._expect(KEYWORD, "SET")
        assignments = [self._assignment()]
        while self._accept(OPERATOR, ","):
            assignments.append(self._assignment())
        where = self._optional_where()
        return ast.Update(table, assignments, where)

    def _assignment(self) -> tuple[str, ast.Expression]:
        column = self._expect_identifier()
        self._expect(OPERATOR, "=")
        return column, self._expression()

    def _delete(self) -> ast.Delete:
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._expect_identifier()
        return ast.Delete(table, self._optional_where())

    def _optional_where(self) -> ast.Expression | None:
        if self._accept(KEYWORD, "WHERE"):
            return self._expression()
        return None

    # -- SELECT -----------------------------------------------------------------------------

    def _select(self) -> ast.Select:
        self._expect(KEYWORD, "SELECT")
        distinct = bool(self._accept(KEYWORD, "DISTINCT"))
        items = [self._select_item()]
        while self._accept(OPERATOR, ","):
            items.append(self._select_item())

        source: ast.TableRef | None = None
        joins: list[ast.Join] = []
        if self._accept(KEYWORD, "FROM"):
            source = self._table_ref()
            while True:
                kind = None
                if self._accept(KEYWORD, "JOIN"):
                    kind = "inner"
                elif self._peek().matches(KEYWORD, "INNER"):
                    self._advance()
                    self._expect(KEYWORD, "JOIN")
                    kind = "inner"
                elif self._peek().matches(KEYWORD, "LEFT"):
                    self._advance()
                    self._accept(KEYWORD, "OUTER")
                    self._expect(KEYWORD, "JOIN")
                    kind = "left"
                if kind is None:
                    break
                table = self._table_ref()
                self._expect(KEYWORD, "ON")
                joins.append(ast.Join(table, self._expression(), kind))

        where = self._optional_where()

        group_by: list[ast.Expression] = []
        having: ast.Expression | None = None
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            group_by.append(self._term())
            while self._accept(OPERATOR, ","):
                group_by.append(self._term())
            if self._accept(KEYWORD, "HAVING"):
                having = self._expression()

        order_by: list[ast.OrderItem] = []
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(OPERATOR, ","):
                order_by.append(self._order_item())

        limit = offset = None
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._expect_count("LIMIT")
            if self._accept(KEYWORD, "OFFSET"):
                offset = self._expect_count("OFFSET")

        return ast.Select(
            items=items, source=source, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, offset=offset, distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._accept(OPERATOR, "*"):
            return ast.SelectItem(expression=None)
        expression = self._expression()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_identifier()
        elif self._peek().matches(IDENTIFIER):
            alias = self._advance().text
        return ast.SelectItem(expression, alias)

    def _table_ref(self) -> ast.TableRef:
        name = self._expect_identifier()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_identifier()
        elif self._peek().matches(IDENTIFIER):
            alias = self._advance().text
        return ast.TableRef(name, alias)

    def _term(self) -> ast.Expression:
        """A GROUP BY or ORDER BY item: ``-n`` is an ordinal, as in SQLite."""
        term = self._expression()
        if (isinstance(term, ast.Unary) and term.operator == "-"
                and isinstance(term.operand, ast.Literal)
                and type(term.operand.value) is int):
            return ast.Literal(-term.operand.value)
        return term

    def _order_item(self) -> ast.OrderItem:
        expression = self._term()
        ascending = True
        if self._accept(KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(KEYWORD, "ASC")
        return ast.OrderItem(expression, ascending)

    # -- expressions ----------------------------------------------------------------------

    def _expression(self) -> ast.Expression:
        return self._or_expression()

    def _or_expression(self) -> ast.Expression:
        left = self._and_expression()
        while self._accept(KEYWORD, "OR"):
            left = ast.Binary("OR", left, self._and_expression())
        return left

    def _and_expression(self) -> ast.Expression:
        left = self._not_expression()
        while self._accept(KEYWORD, "AND"):
            left = ast.Binary("AND", left, self._not_expression())
        return left

    def _not_expression(self) -> ast.Expression:
        if self._accept(KEYWORD, "NOT"):
            return ast.Unary("NOT", self._not_expression())
        return self._predicate()

    def _predicate(self) -> ast.Expression:
        if self._peek().matches(KEYWORD, "EXISTS"):
            self._advance()
            self._expect(OPERATOR, "(")
            select = self._select()
            self._expect(OPERATOR, ")")
            return ast.Exists(select)

        left = self._additive()

        negated = False
        if (self._peek().matches(KEYWORD, "NOT")
                and self._peek(1).kind == KEYWORD
                and self._peek(1).text in ("IN", "BETWEEN", "LIKE")):
            self._advance()
            negated = True

        if self._accept(KEYWORD, "IS"):
            is_not = bool(self._accept(KEYWORD, "NOT"))
            self._expect(KEYWORD, "NULL")
            return ast.IsNull(left, negated=is_not)

        if self._accept(KEYWORD, "BETWEEN"):
            low = self._additive()
            self._expect(KEYWORD, "AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)

        if self._accept(KEYWORD, "IN"):
            self._expect(OPERATOR, "(")
            if self._peek().matches(KEYWORD, "SELECT"):
                select = self._select()
                self._expect(OPERATOR, ")")
                return ast.InSelect(left, select, negated)
            items = [self._expression()]
            while self._accept(OPERATOR, ","):
                items.append(self._expression())
            self._expect(OPERATOR, ")")
            return ast.InList(left, tuple(items), negated)

        if self._accept(KEYWORD, "LIKE"):
            expression = ast.Binary("LIKE", left, self._additive())
            return ast.Unary("NOT", expression) if negated else expression

        for comparison in _COMPARISONS:
            if self._peek().matches(OPERATOR, comparison):
                self._advance()
                return ast.Binary(comparison, left, self._additive())
        return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            if self._accept(OPERATOR, "+"):
                left = ast.Binary("+", left, self._multiplicative())
            elif self._accept(OPERATOR, "-"):
                left = ast.Binary("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            if self._accept(OPERATOR, "*"):
                left = ast.Binary("*", left, self._unary())
            elif self._accept(OPERATOR, "/"):
                left = ast.Binary("/", left, self._unary())
            elif self._accept(OPERATOR, "%"):
                left = ast.Binary("%", left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expression:
        if self._accept(OPERATOR, "-"):
            return ast.Unary("-", self._unary())
        return self._primary()

    def _literal(self) -> ast.Literal:
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return ast.Literal(value)
        if token.kind == STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.matches(KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches(KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches(KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False)
        raise self._error("expected a literal")

    def _primary(self) -> ast.Expression:
        token = self._peek()

        if token.kind in (NUMBER, STRING) or token.text in (
            "NULL", "TRUE", "FALSE"
        ) and token.kind == KEYWORD:
            return self._literal()

        if token.kind == PARAMETER:
            self._advance()
            parameter = ast.Parameter(self._parameter_count)
            self._parameter_count += 1
            return parameter

        if token.matches(OPERATOR, "("):
            self._advance()
            expression = self._expression()
            self._expect(OPERATOR, ")")
            return expression

        if token.kind == IDENTIFIER:
            name = self._advance().text
            if self._accept(OPERATOR, "("):
                if self._accept(OPERATOR, "*"):
                    self._expect(OPERATOR, ")")
                    return ast.FunctionCall(name, (), star=True)
                args: list[ast.Expression] = []
                if not self._peek().matches(OPERATOR, ")"):
                    args.append(self._expression())
                    while self._accept(OPERATOR, ","):
                        args.append(self._expression())
                self._expect(OPERATOR, ")")
                return ast.FunctionCall(name, tuple(args))
            if self._accept(OPERATOR, "."):
                column = self._expect_identifier()
                return ast.ColumnRef(name, column)
            return ast.ColumnRef(None, name)

        raise self._error("expected an expression")


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement."""
    return Parser(sql).parse_statement()
