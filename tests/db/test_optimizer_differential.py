"""Differential testing: the optimizer must never change an answer.

A seeded generator produces ~200 SQL queries over indexed tables and
runs each on three engines: ours with the planner's rules enabled
(``Database(optimize=True)``, the default), ours with every rule
disabled (sequential scans, no pushdown, nested-loop joins only), and
sqlite3 as an external semantics oracle.  All three must return the
same multiset of rows.  Genomic ``contains()`` queries — which sqlite
cannot run — are checked optimizer-on vs optimizer-off only, exercising
the k-mer candidate-fetch + re-check path against the naive scan.
"""

import random
import sqlite3

from repro.db import Database

SEED = 1303
#: How many generated queries each differential sweep runs.
SELECT_QUERIES = 140
JOIN_QUERIES = 60

_T_ROWS = 36
_U_ROWS = 14

_STRINGS = ["alpha", "beta", "gamma", "delta", "ab", "a%b", "x_y", ""]


def _generate_rows(rng):
    t_rows = [
        (
            rng.choice([None] + list(range(-9, 10))),
            rng.choice([None] + list(range(-9, 10))),
            rng.choice([None] + _STRINGS),
        )
        for __ in range(_T_ROWS)
    ]
    u_rows = [
        (
            rng.choice([None] + list(range(-9, 10))),
            rng.choice([None] + list(range(-9, 10))),
        )
        for __ in range(_U_ROWS)
    ]
    return t_rows, u_rows


def _condition(rng, depth=2, prefix=""):
    if depth <= 0 or rng.random() < 0.5:
        kind = rng.choice(["cmp", "between", "null", "like", "in"])
        column = prefix + rng.choice(["a", "b"])
        if kind == "cmp":
            operator = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
            return f"{column} {operator} {rng.randint(-9, 9)}"
        if kind == "between":
            low = rng.randint(-9, 5)
            return f"{column} BETWEEN {low} AND {low + rng.randint(0, 6)}"
        if kind == "null":
            return f"{column} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
        if kind == "like":
            pattern = rng.choice(["a%", "%a%", "_b%", "alpha", "%"])
            return f"{prefix}s LIKE '{pattern}'"
        values = [str(rng.randint(-9, 9))
                  for __ in range(rng.randint(1, 4))]
        return f"{column} IN ({', '.join(values)})"
    left = _condition(rng, depth - 1, prefix)
    right = _condition(rng, depth - 1, prefix)
    if rng.random() < 0.25:
        return f"NOT ({left})"
    return f"({left}) {rng.choice(['AND', 'OR'])} ({right})"


def _select_query(rng):
    shape = rng.choice(["plain", "plain", "plain", "order", "distinct",
                        "group", "having"])
    condition = _condition(rng)
    if shape == "plain":
        return f"SELECT a, b, s FROM t WHERE {condition}"
    if shape == "order":
        limit, offset = rng.randint(0, 8), rng.randint(0, 8)
        return (f"SELECT a, b, s FROM t WHERE {condition} "
                f"ORDER BY a, b, s LIMIT {limit} OFFSET {offset}")
    if shape == "distinct":
        return f"SELECT DISTINCT a, s FROM t WHERE {condition}"
    if shape == "group":
        return (f"SELECT a, count(*), sum(b), min(b), max(b) "
                f"FROM t WHERE {condition} GROUP BY a")
    return (f"SELECT a, count(*) FROM t WHERE {condition} "
            f"GROUP BY a HAVING count(*) > {rng.randint(0, 3)}")


#: ``ON`` conditions, each planned another way when optimizing (always
#: a nested loop when not): ``u.a`` is indexed — an index join, with and
#: without a residual; ``u.c`` is not — a hash join; no equality — a
#: nested loop.
_JOIN_CONDITIONS = ("t.a = u.a", "t.a = u.a", "u.a = t.b AND t.b <= u.c",
                    "t.b = u.c", "t.b = u.c AND t.a <> u.a", "t.a < u.a")


def _join_query(rng):
    condition = _condition(rng, prefix="t.")
    join = rng.choice(["JOIN", "JOIN", "LEFT JOIN"])
    sql = (f"SELECT t.a, t.s, u.c FROM t {join} u "
           f"ON {rng.choice(_JOIN_CONDITIONS)} WHERE {condition}")
    if rng.random() < 0.3:
        # A bounded sort over the join: the order is total but for
        # duplicate rows, which are interchangeable.
        sql += (f" ORDER BY t.a DESC, u.c, t.s "
                f"LIMIT {rng.randint(0, 12)} OFFSET {rng.randint(0, 4)}")
    return sql


_INDEX_DDL = (
    "CREATE INDEX it_a ON t (a) USING hash",
    "CREATE INDEX it_b ON t (b) USING btree",
    "CREATE INDEX iu_a ON u (a) USING hash",
)


def _build_ours(optimize, t_rows, u_rows):
    database = Database(optimize=optimize)
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    database.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
    for ddl in _INDEX_DDL:
        database.execute(ddl)
    for row in t_rows:
        database.execute("INSERT INTO t VALUES (?, ?, ?)", list(row))
    for row in u_rows:
        database.execute("INSERT INTO u VALUES (?, ?)", list(row))
    return database


def _build_oracle(t_rows, u_rows):
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    oracle.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
    for row in t_rows:
        oracle.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    for row in u_rows:
        oracle.execute("INSERT INTO u VALUES (?, ?)", row)
    return oracle


def _multiset(rows):
    return sorted((tuple(row) for row in rows), key=repr)


class TestOptimizerDifferential:
    """Optimizer on vs off vs sqlite over ~200 generated queries."""

    def _sweep(self, make_query, count, seed_salt):
        rng = random.Random(("optimizer-differential", SEED, seed_salt)
                            .__repr__())
        t_rows, u_rows = _generate_rows(rng)
        optimized = _build_ours(True, t_rows, u_rows)
        naive = _build_ours(False, t_rows, u_rows)
        oracle = _build_oracle(t_rows, u_rows)
        for __ in range(count):
            sql = make_query(rng)
            fast = _multiset(optimized.query(sql).rows)
            slow = _multiset(naive.query(sql).rows)
            truth = _multiset(oracle.execute(sql).fetchall())
            assert fast == slow == truth, sql

    def test_select_queries_agree(self):
        self._sweep(_select_query, SELECT_QUERIES, "select")

    def test_join_queries_agree(self):
        self._sweep(_join_query, JOIN_QUERIES, "join")

    def test_contains_candidate_recheck_agrees_with_naive_scan(self):
        # Genomic contains() has no sqlite oracle; optimizer-off IS the
        # oracle for the k-mer candidate-fetch + residual re-check path.
        from repro.adapter import install_genomics

        rng = random.Random(("optimizer-differential", SEED, "contains")
                            .__repr__())
        fragments = [
            "".join(rng.choice("ACGT") for __ in range(rng.randint(8, 40)))
            for __ in range(30)
        ]
        engines = []
        for optimize in (True, False):
            database = Database(optimize=optimize)
            install_genomics(database)
            database.execute(
                "CREATE TABLE f (id INTEGER PRIMARY KEY, fragment DNA)"
            )
            database.execute(
                "CREATE INDEX if_frag ON f (fragment) "
                "USING kmer WITH (k = 4)"
            )
            for index, fragment in enumerate(fragments):
                database.execute(
                    f"INSERT INTO f VALUES ({index}, dna('{fragment}'))"
                )
            engines.append(database)
        optimized, naive = engines
        for __ in range(40):
            source = rng.choice(fragments)
            start = rng.randrange(max(1, len(source) - 6))
            motif = source[start:start + rng.randint(4, 6)]
            sql = (f"SELECT id FROM f "
                   f"WHERE contains(fragment, '{motif}')")
            assert (_multiset(optimized.query(sql).rows)
                    == _multiset(naive.query(sql).rows)), sql


class TestFlagActuallyChangesPlans:
    """Guards the guard: optimize=False must disable every rule."""

    def _pair(self):
        rng = random.Random(("optimizer-differential", SEED, "plans")
                            .__repr__())
        t_rows, u_rows = _generate_rows(rng)
        return (_build_ours(True, t_rows, u_rows),
                _build_ours(False, t_rows, u_rows))

    def test_index_selection_is_disabled(self):
        optimized, naive = self._pair()
        sql = "SELECT a FROM t WHERE a = 3"
        assert "IndexEqualScan" in optimized.explain(sql)
        plan = naive.explain(sql)
        assert "IndexEqualScan" not in plan and "SeqScan" in plan

    def test_hash_join_is_disabled(self):
        optimized, naive = self._pair()
        for on, strategy in (("t.a = u.a", "IndexJoin[inner]"),
                             ("t.b = u.c", "HashJoin[inner]")):
            sql = f"SELECT t.a, u.c FROM t JOIN u ON {on}"
            assert strategy in optimized.explain(sql)
            assert "NestedLoopJoin" in naive.explain(sql)
            left = sql.replace("JOIN", "LEFT JOIN")
            assert strategy.replace("inner", "left") in optimized.explain(left)
            assert "NestedLoopJoin[left]" in naive.explain(left)

    def test_pushdown_is_disabled(self):
        optimized, naive = self._pair()
        # LIKE is pushable but not indexable, so it must survive as a
        # Filter node on both plans — only its position moves.
        sql = ("SELECT t.a, u.c FROM t JOIN u ON t.a = u.a "
               "WHERE t.s LIKE 'a%'")
        optimized_plan = optimized.explain(sql)
        naive_plan = naive.explain(sql)
        # Optimized: the filter sits below the join, on t's access path.
        assert optimized_plan.index("Join") < optimized_plan.index("Filter")
        # Naive: the filter sits above the join.
        assert naive_plan.index("Filter") < naive_plan.index("Join")


class TestHashJoinRefusesWhatCompareRefuses:
    """A bucket lookup never compares: ``TRUE`` hashes to ``1`` and a
    text key simply is not in a bucket of integers.  The hash join must
    reject or match precisely what ``compare("=", left, right)`` — what
    the nested loop evaluates — would, in both layouts."""

    STATEMENTS = (
        "SELECT a.id, b.id FROM a JOIN b ON a.f = b.n",   # BOOLEAN x INTEGER
        "SELECT a.id, b.id FROM a JOIN b ON a.t = b.n",   # TEXT x INTEGER
        "SELECT a.id, b.id FROM a JOIN b ON b.n = a.f",   # operands swapped
        "SELECT a.id, b.id FROM a JOIN b ON a.id = b.n",  # comparable: rows
        "SELECT a.id, b.id FROM a JOIN b ON a.r = b.n",   # REAL x INTEGER
        "SELECT a.id, b.id FROM a JOIN b ON a.f = b.n AND a.id > 9",
    )

    @staticmethod
    def _outcome(database, sql):
        from repro.errors import DatabaseError
        try:
            return _multiset(database.query(sql).rows)
        except DatabaseError as exc:
            return (type(exc).__name__, str(exc))

    @staticmethod
    def _build(optimize, layout):
        database = Database(optimize=optimize, layout=layout, page_rows=2)
        database.execute("CREATE TABLE a (id INTEGER, f BOOLEAN, t TEXT, "
                         "r REAL)")
        database.execute("CREATE TABLE b (id INTEGER, n INTEGER)")
        database.execute("INSERT INTO a VALUES (1, TRUE, '1', 1.0), "
                         "(2, FALSE, '0', 0.5), (3, NULL, NULL, NULL)")
        database.execute("INSERT INTO b VALUES (1, 1), (2, 0), (3, NULL)")
        return database

    def test_statements_agree_with_the_nested_loop(self):
        for layout in ("row", "column"):
            optimized = self._build(True, layout)
            naive = self._build(False, layout)
            for sql in self.STATEMENTS:
                assert "HashJoin" in optimized.explain(sql), sql
                assert "NestedLoopJoin" in naive.explain(sql), sql
                assert (self._outcome(optimized, sql)
                        == self._outcome(naive, sql)), (sql, layout)

    def test_the_two_reported_statements(self):
        optimized = self._build(True, "row")
        assert self._outcome(optimized, self.STATEMENTS[0]) == (
            "TypeCheckError", "cannot compare bool with int")
        assert self._outcome(optimized, self.STATEMENTS[1]) == (
            "TypeCheckError", "cannot compare str with int")
        assert self._outcome(optimized, self.STATEMENTS[3]) == [(1, 1)]
        assert self._outcome(optimized, self.STATEMENTS[4]) == [(1, 1)]
