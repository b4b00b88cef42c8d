"""Property-based tests: the SQL engine against Python-model semantics."""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, NULL

values = st.one_of(st.none(), st.integers(-50, 50))
rows_strategy = st.lists(
    st.tuples(st.integers(0, 5), values), min_size=0, max_size=40
)


def make_db(rows):
    database = Database()
    database.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    for k, v in rows:
        database.execute("INSERT INTO t VALUES (?, ?)", [k, v])
    return database


class TestAggregateSemantics:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_count_sum_avg_match_python(self, rows):
        database = make_db(rows)
        result = database.query(
            "SELECT count(*), count(v), sum(v), min(v), max(v) FROM t"
        ).first()
        non_null = [v for __, v in rows if v is not None]
        assert result[0] == len(rows)
        assert result[1] == len(non_null)
        assert result[2] == (sum(non_null) if non_null else NULL)
        assert result[3] == (min(non_null) if non_null else NULL)
        assert result[4] == (max(non_null) if non_null else NULL)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_group_by_matches_python(self, rows):
        database = make_db(rows)
        result = database.query(
            "SELECT k, count(*), sum(v) FROM t GROUP BY k ORDER BY k"
        )
        model: dict[int, list] = defaultdict(list)
        for k, v in rows:
            model[k].append(v)
        expected = []
        for k in sorted(model):
            non_null = [v for v in model[k] if v is not None]
            expected.append((
                k, len(model[k]),
                sum(non_null) if non_null else NULL,
            ))
        assert result.rows == expected

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.integers(-20, 20))
    def test_having_matches_python(self, rows, threshold):
        database = make_db(rows)
        result = database.query(
            "SELECT k FROM t GROUP BY k HAVING count(*) > ? ORDER BY k",
            [threshold],
        )
        model: dict[int, int] = defaultdict(int)
        for k, __ in rows:
            model[k] += 1
        expected = [(k,) for k in sorted(model) if model[k] > threshold]
        assert result.rows == expected


class TestFilterAndSort:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, st.integers(-50, 50))
    def test_where_matches_python(self, rows, bound):
        database = make_db(rows)
        result = database.query(
            "SELECT k, v FROM t WHERE v >= ?", [bound]
        )
        expected = [(k, v) for k, v in rows
                    if v is not None and v >= bound]
        assert sorted(result.rows) == sorted(expected)

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy)
    def test_order_by_is_stable_total_order(self, rows):
        database = make_db(rows)
        result = database.query(
            "SELECT v FROM t ORDER BY v ASC"
        ).column("v")
        non_null = sorted(v for __, v in rows if v is not None)
        nulls = [NULL] * sum(1 for __, v in rows if v is None)
        assert result == nulls + non_null  # NULLs first, then ascending

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.integers(0, 10), st.integers(0, 10))
    def test_limit_offset_window(self, rows, limit, offset):
        database = make_db(rows)
        everything = database.query(
            "SELECT k, v FROM t ORDER BY k, v"
        ).rows
        window = database.query(
            f"SELECT k, v FROM t ORDER BY k, v LIMIT {limit} "
            f"OFFSET {offset}"
        ).rows
        assert window == everything[offset:offset + limit]

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_distinct_matches_set_semantics(self, rows):
        database = make_db(rows)
        result = database.query("SELECT DISTINCT k FROM t").column("k")
        assert sorted(result) == sorted({k for k, __ in rows})
        assert len(result) == len(set(result))


class TestJoinSemantics:
    pairs = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 20)),
                     max_size=15)

    @settings(max_examples=40, deadline=None)
    @given(pairs, pairs)
    def test_inner_join_matches_comprehension(self, left, right):
        database = Database()
        database.execute("CREATE TABLE a (k INTEGER, x INTEGER)")
        database.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        for k, x in left:
            database.execute("INSERT INTO a VALUES (?, ?)", [k, x])
        for k, y in right:
            database.execute("INSERT INTO b VALUES (?, ?)", [k, y])
        result = database.query(
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k"
        )
        expected = [(x, y) for k1, x in left for k2, y in right
                    if k1 == k2]
        assert sorted(result.rows) == sorted(expected)

    @settings(max_examples=40, deadline=None)
    @given(pairs, pairs)
    def test_left_join_preserves_left_cardinality_at_least(self, left,
                                                           right):
        database = Database()
        database.execute("CREATE TABLE a (k INTEGER, x INTEGER)")
        database.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        for k, x in left:
            database.execute("INSERT INTO a VALUES (?, ?)", [k, x])
        for k, y in right:
            database.execute("INSERT INTO b VALUES (?, ?)", [k, y])
        result = database.query(
            "SELECT a.k FROM a LEFT JOIN b ON a.k = b.k"
        )
        right_counts: dict[int, int] = defaultdict(int)
        for k, __ in right:
            right_counts[k] += 1
        expected_rows = sum(max(1, right_counts[k]) for k, __ in left)
        assert len(result) == expected_rows


class TestDmlInvariants:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, st.integers(-50, 50))
    def test_delete_plus_remainder_is_total(self, rows, bound):
        database = make_db(rows)
        deleted = database.execute("DELETE FROM t WHERE v < ?", [bound])
        remaining = database.query("SELECT count(*) FROM t").scalar()
        assert deleted + remaining == len(rows)
        # Nothing below the bound survives.
        assert database.query(
            "SELECT count(*) FROM t WHERE v < ?", [bound]
        ).scalar() == 0

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_update_touches_exactly_matching_rows(self, rows):
        database = make_db(rows)
        updated = database.execute(
            "UPDATE t SET v = 999 WHERE v IS NOT NULL"
        )
        assert updated == sum(1 for __, v in rows if v is not None)
        assert database.query(
            "SELECT count(*) FROM t WHERE v = 999"
        ).scalar() == updated

    @settings(max_examples=30, deadline=None)
    @given(rows_strategy)
    def test_rollback_restores_exact_state(self, rows):
        def ordered(result_rows):
            return sorted(result_rows, key=repr)

        database = make_db(rows)
        before = ordered(database.query("SELECT k, v FROM t").rows)
        database.begin()
        database.execute("UPDATE t SET v = 1")
        database.execute("DELETE FROM t WHERE k > 2")
        database.execute("INSERT INTO t VALUES (9, 9)")
        database.rollback()
        after = ordered(database.query("SELECT k, v FROM t").rows)
        assert after == before


# -- compiled columns ≡ the tree-walking interpreter -----------------------
#
# Both layouts run one executor, so columnar ≡ row no longer judges how an
# expression is evaluated.  The interpreter the engine used to run
# (``reference_evaluator.py``) does: every compiled column must agree
# with it cell for cell — the value (and its type), or the error's
# ``(type, message)`` in exactly the rows where the interpreter raises.

from repro.db.sql import ast  # noqa: E402
from repro.db.sql.expressions import (  # noqa: E402
    Batch,
    Evaluator,
    Failing,
    Frame,
    RowContext,
)
from repro.db.columnar.vector import KernelError  # noqa: E402
from repro.db.sql.parser import parse  # noqa: E402

from tests.db.reference_evaluator import ReferenceEvaluator  # noqa: E402

_FRAME = Frame([("t", "a"), ("t", "b"), ("t", "c"), ("u", "c")])

_cell_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 2.0]),
    st.sampled_from(["", "a", "ab", "a%", "b_"]),
)
_rows = st.lists(st.tuples(*[_cell_values] * len(_FRAME)), max_size=12)
_leaves = st.one_of(
    _cell_values.map(ast.Literal),
    st.integers(0, 3).map(ast.Parameter),        # 3: never supplied
    st.sampled_from([
        ast.ColumnRef(None, "a"), ast.ColumnRef("t", "b"),
        ast.ColumnRef("u", "c"),
        ast.ColumnRef(None, "c"),                # ambiguous
        ast.ColumnRef(None, "nope"),             # unknown
    ]),
)


def _nodes(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(st.sampled_from(["-", "NOT"]), children).map(
            lambda args: ast.Unary(*args)),
        st.tuples(st.sampled_from(
            ["AND", "OR", "AND", "OR", "LIKE", "=", "<>", "<", ">=",
             "+", "-", "*", "/", "%"]), children, children).map(
            lambda args: ast.Binary(*args)),
        st.tuples(children, st.booleans()).map(
            lambda args: ast.IsNull(*args)),
        st.tuples(children, children, children, st.booleans()).map(
            lambda args: ast.Between(*args)),
        st.tuples(children, st.lists(children, min_size=1, max_size=3),
                  st.booleans()).map(
            lambda args: ast.InList(args[0], tuple(args[1]), args[2])),
        # picky() raises on 2 and on text; no_such() is not registered;
        # count() is an aggregate where none may stand.
        st.tuples(st.sampled_from(
            ["picky", "picky", "typeof", "abs", "no_such", "count"]),
            children).map(lambda args: ast.FunctionCall(args[0],
                                                        (args[1],))),
        pairs.map(lambda args: ast.FunctionCall("coalesce", args)),
    )


_expressions = st.recursive(_leaves, _nodes, max_leaves=8)


def _picky(value):
    if value == 2:
        raise ValueError("two is right out")
    if isinstance(value, str):
        raise TypeError("no text")
    return value


def _evaluators():
    database = Database()
    database.register_function("picky", _picky)
    database.execute("CREATE TABLE s (k INTEGER)")
    database.execute("INSERT INTO s VALUES (1), (2), (NULL)")
    return database, Evaluator(database), ReferenceEvaluator(database)


def _outcome(compute):
    try:
        value = compute()
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("value", type(value), value)


def _cell_outcome(cell):
    if type(cell) is KernelError:
        return ("error", type(cell.error), str(cell.error))
    return ("value", type(cell), cell)


def _assert_column_matches_reference(expression, rows, parameters,
                                     outer=None):
    database, compiled, reference = _evaluators()
    context = RowContext.without_row(parameters, outer)
    column = compiled.compile(expression, _FRAME)(
        Batch.of_rows(rows) if rows else Batch([()] * len(_FRAME), 0),
        context)
    assert len(column) == len(rows)
    expected = [
        _outcome(lambda: reference.evaluate(
            expression, RowContext(_FRAME, row, parameters, outer)))
        for row in rows
    ]
    assert [_cell_outcome(cell) for cell in column] == expected
    # A failed cell marks its column: operators look no further for one.
    if any(kind == "error" for kind, _, _ in expected):
        assert type(column) is Failing
    # The one-row wrapper is the same closure: same value or same raise.
    for row, outcome in zip(rows, expected):
        assert _outcome(lambda: compiled.evaluate(
            expression, RowContext(_FRAME, row, parameters, outer))
        ) == outcome


class TestCompiledExpressionsMatchTheInterpreter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_expressions, _rows, st.lists(_cell_values, min_size=3,
                                         max_size=3))
    def test_random_trees_over_random_rows(self, expression, rows,
                                           parameters):
        _assert_column_matches_reference(expression, rows, parameters)

    @pytest.mark.parametrize("text", [
        # the right side runs only where the left leaves the row open
        "a = 1 OR picky(b) = 1",
        "a = 1 AND picky(b) = 1",
        "picky(a) = 1 AND picky(b) = 1",
        "NOT (a IS NULL OR picky(a) > 0)",
        "a AND b",                               # not booleans: TypeCheck
        # an item is compared only if no earlier one matched
        "a IN (1, picky(b), 3)",
        "a NOT IN (picky(b), 1)",
        # row-invariant subtrees: once per batch, failures included
        "a + abs(? - 5) > 0", "picky(? + 1) = a", "picky(?) = a",
        "b LIKE ?", "b LIKE 'a%'", "b LIKE a",
        "a / b", "a % b", "a / 0", "a + b", "-a", "a BETWEEN b AND 2",
        "coalesce(a, b) = t.c",
        # subqueries, correlated and not, loop inside their closure
        "a IN (SELECT k FROM s)", "a NOT IN (SELECT k FROM s)",
        "a IN (SELECT k, k FROM s)",
        "EXISTS (SELECT 1 FROM s WHERE s.k = t.a)",
        "NOT EXISTS (SELECT 1 FROM s WHERE k = b AND picky(k) = 1)",
        "picky(a) IN (SELECT k FROM s WHERE k > t.b)",
        "a = outer_x", "a = o.nope",
    ])
    def test_the_cases_a_column_at_a_time_gets_wrong(self, text):
        expression = parse(f"SELECT 1 FROM t WHERE {text}").where
        rows = [(1, 2, None, 0), (2, 1, "x", 1), (None, "ab", 1, 2),
                (0, 0, 2.0, None), (True, False, 1, 1), ("a", "a%", 3, 3),
                (3, None, None, None), (1.0, 2, 5, 5)]
        outer = RowContext(Frame([("o", "outer_x")]), (1,))
        for parameters in ((2,), (1,), ("a%",), (None,), ()):
            _assert_column_matches_reference(expression, rows, parameters,
                                             outer)
            _assert_column_matches_reference(expression, [], parameters,
                                             outer)
