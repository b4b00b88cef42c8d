"""Differential testing: our engine vs sqlite3 as a semantics oracle.

Random data and random queries from a dialect subset both engines share
(comparisons, boolean connectives, LIKE, BETWEEN, IS NULL, aggregates,
GROUP BY/HAVING, ORDER BY, LIMIT, inner joins) are executed on both; the
result multisets must agree.  Division is excluded (integer-division
semantics differ by design) and ordering is only compared when the query
makes it total.

Every query runs twice — as written and with its integer/text literals
lifted into ``?`` parameters, which is the shape every production caller
sends (the BiQL translator, the warehouse, the benchmarks).
"""

import re
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.errors import SqlSyntaxError
from tests.db.test_columnar_differential import CONFIGS

# -- data generators ---------------------------------------------------------

cell = st.one_of(st.none(), st.integers(-9, 9))
text_cell = st.one_of(st.none(), st.sampled_from(
    ["alpha", "beta", "gamma", "ab", "a%b", "x_y", ""]
))
row = st.tuples(cell, cell, text_cell)
rows_strategy = st.lists(row, max_size=25)

# -- condition generator (strings valid in both dialects) ---------------------

comparison = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])


@st.composite
def conditions(draw, depth=2, prefix=""):
    if depth <= 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(
            ["cmp", "between", "null", "like", "in"]
        ))
        column = prefix + draw(st.sampled_from(["a", "b"]))
        if kind == "cmp":
            operator = draw(comparison)
            value = draw(st.integers(-9, 9))
            return f"{column} {operator} {value}"
        if kind == "between":
            low = draw(st.integers(-9, 5))
            high = low + draw(st.integers(0, 6))
            return f"{column} BETWEEN {low} AND {high}"
        if kind == "null":
            negated = draw(st.booleans())
            return f"{column} IS {'NOT ' if negated else ''}NULL"
        if kind == "like":
            pattern = draw(st.sampled_from(
                ["a%", "%a%", "_b%", "alpha", "%"]
            ))
            return f"{prefix}s LIKE '{pattern}'"
        values = draw(st.lists(st.integers(-9, 9), min_size=1,
                               max_size=4))
        return f"{column} IN ({', '.join(map(str, values))})"
    left = draw(conditions(depth=depth - 1, prefix=prefix))
    right = draw(conditions(depth=depth - 1, prefix=prefix))
    connective = draw(st.sampled_from(["AND", "OR"]))
    if draw(st.booleans()):
        return f"NOT ({left})"
    return f"({left}) {connective} ({right})"


#: How ``u.a``, the right key of the join tests, is indexed — which is
#: what picks between a hash join and an index join — and the ``ON``
#: conditions they run: bare, with a residual, without an equality.
right_index = st.sampled_from([None, "hash", "btree"])
join_conditions = st.sampled_from([
    "t.a = u.a", "u.a = t.a AND t.b < u.c", "t.a = u.a AND t.b IS NOT NULL",
    "t.a < u.a"])


def build_engines(rows, second_rows=None, index=None, **config):
    ours = Database(**config)
    ours.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    theirs = sqlite3.connect(":memory:")
    theirs.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    for a, b, s in rows:
        ours.execute("INSERT INTO t VALUES (?, ?, ?)", [a, b, s])
        theirs.execute("INSERT INTO t VALUES (?, ?, ?)", (a, b, s))
    if second_rows is not None:
        ours.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        theirs.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        if index is not None:
            ours.execute(f"CREATE INDEX u_a ON u (a) USING {index}")
        for a, c in second_rows:
            ours.execute("INSERT INTO u VALUES (?, ?)", [a, c])
            theirs.execute("INSERT INTO u VALUES (?, ?)", (a, c))
    return ours, theirs


_LIFTABLE = re.compile(
    r"(?P<keep>\?|\d+\.\d+|(?:LIMIT|OFFSET)\s+\d+)"
    r"|(?P<text>'(?:[^']|'')*')|(?P<int>\b\d+\b)"
)


def lift_literals(sql, parameters=()):
    """*sql* with every integer and text literal replaced by ``?``, and
    the parameter list that makes it the same statement.  ``?`` already
    there keep their values in place; LIMIT/OFFSET counts (not
    expressions in either dialect's grammar here) and floats stay."""
    given = iter(parameters)
    lifted = []

    def lift(match):
        if match.group("keep") is not None:
            if match.group() == "?":
                lifted.append(next(given))
            return match.group()
        if match.group("int") is not None:
            lifted.append(int(match.group()))
        else:
            lifted.append(match.group()[1:-1].replace("''", "'"))
        return "?"

    return _LIFTABLE.sub(lift, sql), lifted


def both(ours, theirs, sql, parameters=()):
    """Rows of *sql* from both engines, as written and with literals
    lifted — each row tagged with its form so the two cannot mix."""
    mine, other = [], []
    forms = ((sql, list(parameters)), lift_literals(sql, parameters))
    for form, (text, values) in enumerate(forms):
        mine += [(form, *r) for r in ours.query(text, values).rows]
        other += [(form, *r) for r in theirs.execute(text, values)]
    return mine, other


def as_multiset(rows):
    return sorted(rows, key=repr)


class TestSelectDifferential:
    @settings(max_examples=80, deadline=None)
    @given(rows_strategy, conditions())
    def test_where_matches_sqlite(self, rows, condition):
        ours, theirs = build_engines(rows)
        sql = f"SELECT a, b, s FROM t WHERE {condition}"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_aggregates_match_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = ("SELECT a, count(*), count(b), sum(b), min(b), max(b) "
               "FROM t GROUP BY a")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, st.integers(-3, 3))
    def test_having_matches_sqlite(self, rows, threshold):
        ours, theirs = build_engines(rows)
        sql = (f"SELECT a, sum(b) FROM t GROUP BY a "
               f"HAVING count(*) > {threshold}")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, st.integers(0, 8), st.integers(0, 8))
    def test_order_limit_matches_sqlite(self, rows, limit, offset):
        ours, theirs = build_engines(rows)
        # Total order over all columns makes LIMIT windows comparable
        # ... except among duplicate full rows, which are interchangeable.
        sql = (f"SELECT a, b, s FROM t ORDER BY a, b, s "
               f"LIMIT {limit} OFFSET {offset}")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_distinct_matches_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = "SELECT DISTINCT a, s FROM t"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy)
    def test_expressions_match_sqlite(self, rows):
        ours, theirs = build_engines(rows)
        sql = "SELECT a + b, a - b, a * 2 FROM t WHERE a IS NOT NULL"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=50, deadline=None)
    @given(rows_strategy,
           st.lists(st.tuples(cell, cell), max_size=12),
           conditions(prefix="t."), right_index, join_conditions)
    def test_inner_join_matches_sqlite(self, rows, second, condition,
                                       index, on):
        ours, theirs = build_engines(rows, second, index)
        sql = f"SELECT t.s, u.c FROM t JOIN u ON {on} WHERE {condition}"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.lists(st.tuples(cell, cell), max_size=12),
           right_index, join_conditions)
    def test_left_join_matches_sqlite(self, rows, second, index, on):
        ours, theirs = build_engines(rows, second, index)
        sql = f"SELECT t.a, t.b, u.c FROM t LEFT JOIN u ON {on}"
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.lists(st.tuples(cell, cell), max_size=12),
           right_index, join_conditions,
           st.sampled_from(["JOIN", "LEFT JOIN"]),
           st.integers(0, 8), st.integers(0, 8))
    def test_join_under_a_bounded_sort_matches_sqlite(
            self, rows, second, index, on, join, limit, offset):
        ours, theirs = build_engines(rows, second, index)
        # NULLs sort first in both engines; the order is total but for
        # duplicate rows, which are interchangeable.
        sql = (f"SELECT t.a, t.b, t.s, u.c FROM t {join} u ON {on} "
               f"ORDER BY t.a DESC, u.c, t.b, t.s DESC "
               f"LIMIT {limit} OFFSET {offset}")
        assert f"; top {limit + offset})" in ours.explain(sql)
        mine, other = both(ours, theirs, sql)
        assert mine == other

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, conditions())
    def test_in_subquery_matches_sqlite(self, rows, condition):
        ours, theirs = build_engines(rows)
        sql = (f"SELECT a FROM t WHERE b IN "
               f"(SELECT a FROM t WHERE {condition})")
        mine, other = both(ours, theirs, sql)
        assert as_multiset(mine) == as_multiset(other)


STATEMENT_ROWS = [(0, 5, "alpha"), (1, 5, "alpha"), (2, None, "beta"),
                  (3, 7, "beta"), (4, 7, "alpha"), (5, 1, "gamma"),
                  (None, 2, None)]

#: Statements that were silently wrong or refused while expressions were
#: told apart by their printed text: ``?`` printed alike whatever its
#: index, ``t.s`` unlike ``s``, and the aggregate rewrite never reached
#: the operand of ``IN (SELECT ...)``.  Then ORDER BY aliases inside a
#: larger sort key, with SQLite's precedence (input column first).
STATEMENTS = (
    ("SELECT sum(a + ?), sum(a + ?) FROM t", [1, 100]),
    ("SELECT s, sum(a * ?) AS x, sum(a * ?) AS y FROM t GROUP BY s",
     [1, 100]),
    ("SELECT s FROM t GROUP BY s HAVING sum(a + ?) > sum(a + ?)",
     [100, 1]),
    ("SELECT s FROM t GROUP BY s HAVING count(*) IN (SELECT 3)", []),
    ("SELECT s, count(*) IN (SELECT 3) FROM t GROUP BY s", []),
    ("SELECT s FROM t GROUP BY s HAVING s IN (SELECT 'alpha')", []),
    ("SELECT s FROM t GROUP BY s ORDER BY count(*) IN (SELECT 3), s", []),
    ("SELECT s, count(*) FROM t GROUP BY t.s", []),
    ("SELECT t.s, count(*) FROM t GROUP BY s", []),
    ("SELECT s, count(s), count(t.s) FROM t GROUP BY s", []),
    ("SELECT sum(a + 1), sum(a + 1.0) FROM t", []),
    ("SELECT a AS k FROM t ORDER BY -k", []),
    ("SELECT s, sum(a) AS x FROM t GROUP BY s ORDER BY -x", []),
    ("SELECT -a AS a FROM t ORDER BY a + 0 LIMIT 3", []),
    ("SELECT -a AS a FROM t ORDER BY a LIMIT 3", []),
)


class TestStatementsDifferential:
    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    @pytest.mark.parametrize("sql, parameters", STATEMENTS)
    def test_statement_matches_sqlite(self, sql, parameters, config):
        ours, theirs = build_engines(STATEMENT_ROWS, page_rows=4, **config)
        mine, other = both(ours, theirs, sql, parameters)
        if "ORDER BY" not in sql:
            mine, other = as_multiset(mine), as_multiset(other)
        assert mine == other
        # Python's 820 == 820.0: equal rows must agree on float-ness too.
        assert ([[isinstance(v, float) for v in r] for r in mine]
                == [[isinstance(v, float) for v in r] for r in other])


#: An integer literal that is a whole ORDER BY or GROUP BY item names a
#: select item, counting from 1; ``1 + 0``, ``1.5`` and ``'a'`` stay
#: constant expressions.  Run as written: lifted into ``?`` an ordinal
#: is a constant in both dialects.
ORDINALS = (
    "SELECT s, a FROM t ORDER BY 2 DESC, 1 LIMIT 3",
    "SELECT s, b FROM t ORDER BY 2 DESC, 1",
    "SELECT * FROM t ORDER BY 3, 1 DESC",
    "SELECT a AS b, b FROM t ORDER BY 2, 1",
    "SELECT a FROM t ORDER BY 1 + 0, 1.5, 'a', a",
    "SELECT b, count(*) FROM t GROUP BY 1 ORDER BY 1",
    "SELECT s, sum(a) FROM t GROUP BY 1 ORDER BY 2 DESC, 1",
    "SELECT count(*), s FROM t GROUP BY 2 ORDER BY 2",
    # An alias of an integer literal is a constant key, not an ordinal.
    "SELECT 3 AS n, a FROM t ORDER BY n",
    "SELECT 2 AS n, a FROM t ORDER BY n, a",
)

#: ...and out of range, or naming an aggregate, it is refused.
REFUSED_ORDINALS = (
    ("SELECT a FROM t ORDER BY 3", "ORDER BY term 3 out of range"),
    ("SELECT a FROM t ORDER BY 0", "ORDER BY term 0 out of range"),
    ("SELECT a FROM t ORDER BY -1", "ORDER BY term -1 out of range"),
    ("SELECT a, b FROM t ORDER BY 1, 3", "between 1 and 2"),
    ("SELECT s FROM t GROUP BY 2", "GROUP BY term 2 out of range"),
    ("SELECT count(*), s FROM t GROUP BY 1", "names an aggregate"),
)


class TestOrdinalsDifferential:
    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    @pytest.mark.parametrize("sql", ORDINALS)
    def test_an_ordinal_names_a_select_item(self, sql, config):
        ours, theirs = build_engines(STATEMENT_ROWS, page_rows=4, **config)
        assert ours.query(sql).rows == theirs.execute(sql).fetchall()

    @pytest.mark.parametrize("sql, message", REFUSED_ORDINALS)
    def test_an_ordinal_out_of_range_is_refused(self, sql, message):
        for config in CONFIGS:
            ours, theirs = build_engines(STATEMENT_ROWS, **config)
            with pytest.raises(SqlSyntaxError, match=message):
                ours.query(sql)
            with pytest.raises(sqlite3.OperationalError):
                theirs.execute(sql)


# -- writes: every access path changes the rows SQLite changes ---------------

KEYED_SCHEMA = ("CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER UNIQUE, "
                "a INTEGER, b INTEGER, s TEXT)")
KEYED_INDEXES = ("CREATE INDEX t_a ON t (a)", "CREATE INDEX t_b ON t (b)")
KEYED_COLUMNS = "id, u, a, b, s"


def build_keyed_engines(rows, **config):
    """*rows* of ``(a, b, s)`` under a PRIMARY KEY (1, 2, …), a UNIQUE
    column (NULL wherever ``a`` is), a hash index on ``a`` and a btree
    on ``b`` — every kind of index a write's WHERE can be answered by."""
    ours = Database(page_rows=4, **config)
    theirs = sqlite3.connect(":memory:")
    ours.execute(KEYED_SCHEMA)
    ours.execute(KEYED_INDEXES[0] + " USING hash")
    ours.execute(KEYED_INDEXES[1] + " USING btree")
    for statement in (KEYED_SCHEMA, *KEYED_INDEXES):
        theirs.execute(statement)
    for position, (a, b, s) in enumerate(rows, start=1):
        row = [position, None if a is None else 3 * position, a, b, s]
        ours.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
        theirs.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
    return ours, theirs


@st.composite
def write_conditions(draw):
    """A WHERE a production write sends — a key / index probe, alone or
    beside a residual — or any condition of the read differential."""
    probe = draw(st.sampled_from([
        "id = {}", "{} = id", "u = {}", "id >= {}", "id < {}",
        "id BETWEEN {} AND 9", "a = {}", "b = {}", "b >= {}", "b < {}",
        "id IN ({}, 2, 30)", "id = NULL", None]))
    residual = draw(st.one_of(st.none(), conditions()))
    if probe is None:
        return residual or draw(conditions())
    probe = probe.format(draw(st.integers(-2, 12)))
    return probe if residual is None else f"{probe} AND {residual}"


def scans(plan_text):
    """The index scans a plan names."""
    return sorted(re.findall(r"Index\w+Scan", plan_text))


def check_write(rows, sql, where, parameters=()):
    """*sql* (ending in *where*), as written and with its literals
    lifted, in every configuration: the rows left, and the count of rows
    changed, are SQLite's — so optimizer on ≡ off, row ≡ column — and
    the plan probes an index whenever the SELECT with that WHERE does."""
    forms = ((sql, list(parameters)), lift_literals(sql, parameters))
    select = f"SELECT {KEYED_COLUMNS} FROM t WHERE {where}"
    for config in CONFIGS:
        for text, values in forms:
            ours, theirs = build_keyed_engines(rows, **config)
            assert scans(ours.explain(text)) == scans(ours.explain(select))
            if not config.get("optimize", True):
                assert scans(ours.explain(text)) == []
            changed = ours.execute(text, values)
            assert changed == theirs.execute(text, values).rowcount, (
                text, config)
            everything = f"SELECT {KEYED_COLUMNS} FROM t"
            assert (as_multiset(ours.query(everything).rows)
                    == as_multiset(theirs.execute(everything))), (text,
                                                                  config)


KEYED_ROWS = [(0, 5, "alpha"), (1, 5, "alpha"), (2, None, "beta"),
              (3, 7, "beta"), (4, 7, "alpha"), (None, 6, None),
              (5, 1, "gamma"), (6, 8, "ab")]

#: ``(statement, the WHERE it ends in, parameters)``.
NAMED_WRITES = (
    # Through the btree, every changed row moves up across the probe
    # value (and past rows the range has yet to reach): each changes once.
    ("UPDATE t SET b = b + 1 WHERE b >= ?", "b >= ?", [5]),
    ("UPDATE t SET b = b + 3 WHERE b >= 5 AND b < 8", "b >= 5 AND b < 8", []),
    ("UPDATE t SET a = a + 1 WHERE a = 3", "a = 3", []),
    ("UPDATE t SET id = id + 100, u = u + 1 WHERE id >= 3", "id >= 3", []),
    ("DELETE FROM t WHERE id = ? AND s LIKE 'a%'", "id = ? AND s LIKE 'a%'",
     [2]),
    ("DELETE FROM t WHERE id = ? AND s LIKE 'b%'", "id = ? AND s LIKE 'b%'",
     [2]),
    ("DELETE FROM t WHERE id = NULL", "id = NULL", []),
    ("DELETE FROM t WHERE u = ?", "u = ?", [None]),
    ("UPDATE t SET s = 'z' WHERE ? = id", "? = id", [4]),
    ("DELETE FROM t WHERE id IN (1, 3, 99)", "id IN (1, 3, 99)", []),
    # The sub-select reads the table the statement is changing: it must
    # see it whole, for every row.
    ("DELETE FROM t WHERE EXISTS (SELECT 1 FROM t AS o WHERE o.b = t.b "
     "AND o.id <> t.id)",
     "EXISTS (SELECT 1 FROM t AS o WHERE o.b = t.b AND o.id <> t.id)", []),
    ("DELETE FROM t WHERE id >= 2 AND b IN (SELECT b FROM t WHERE id < 3)",
     "id >= 2 AND b IN (SELECT b FROM t WHERE id < 3)", []),
    ("UPDATE t SET b = 0 WHERE b IN (SELECT max(b) FROM t)",
     "b IN (SELECT max(b) FROM t)", []),
    ("DELETE FROM t", "1 = 1", []),
)


class TestDmlDifferential:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rows_strategy, write_conditions())
    def test_delete_matches_sqlite(self, rows, condition):
        check_write(rows, f"DELETE FROM t WHERE {condition}", condition)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rows_strategy, write_conditions(), st.integers(-5, 5),
           st.sampled_from(["b = {}", "b = b + {}", "a = {}, s = 'z'"]))
    def test_update_matches_sqlite(self, rows, condition, value, assignment):
        # ``b`` and ``a`` are indexed: a changed row may now sit on the
        # other side of the probe that found it.
        check_write(rows, f"UPDATE t SET {assignment.format(value)} "
                          f"WHERE {condition}", condition)

    @pytest.mark.parametrize("sql, where, parameters", NAMED_WRITES)
    def test_named_write_matches_sqlite(self, sql, where, parameters):
        check_write(KEYED_ROWS, sql, where, parameters)

    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    def test_writes_on_a_deleted_and_reused_key(self, config):
        ours, theirs = build_keyed_engines(KEYED_ROWS, **config)
        for sql, parameters in (
            ("DELETE FROM t WHERE id = ?", [3]),
            ("DELETE FROM t WHERE id = ?", [3]),         # gone: no row
            ("UPDATE t SET s = 'ghost' WHERE id = ?", [3]),
            ("INSERT INTO t VALUES (?, ?, ?, ?, ?)", [3, 9, 3, 7, "again"]),
            ("UPDATE t SET s = 'kept' WHERE id = ?", [3]),
            ("UPDATE t SET id = 40 WHERE id = ?", [3]),
            ("DELETE FROM t WHERE id = ?", [3]),         # moved away
            ("DELETE FROM t WHERE u = ? AND id = 40", [9]),
        ):
            assert (ours.execute(sql, parameters)
                    == theirs.execute(sql, parameters).rowcount), sql
            everything = f"SELECT {KEYED_COLUMNS} FROM t"
            assert (as_multiset(ours.query(everything).rows)
                    == as_multiset(theirs.execute(everything))), sql
