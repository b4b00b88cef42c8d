"""The join's three strategies, the bounded sort and the narrowed scans,
each held to its law.

- **index ≡ hash ≡ nested loop ≡ SQLite.**  An equi-join finds its
  candidate pairs through an index on the right key, a hash table built
  from the right input, or not at all (``optimize=False``: every right
  row, the whole condition); the three must answer row for row alike —
  a left row's matches in the right table's row order — and, as
  multisets, like SQLite: over duplicate and NULL keys on both sides,
  deleted and updated right rows, an empty right table, INNER and LEFT,
  with and without a residual, in both layouts and under budgets that
  make the hash build spill (the index join never builds, so never
  spills).
- **Kind strangers.**  A lookup never compares: a left key ``=`` would
  refuse against the right keys raises (or matches) exactly what the
  nested loop does, whichever way the pairs are found.
- **Top-n ≡ sort + limit.**  ``ORDER BY … LIMIT n`` keeps *n* rows; the
  rows and their tie order are those of the full sort, cut.
- **A sorted LIMIT over a join ≡ the sort above it.**  Ordered by columns
  of the FROM table alone, over equi-joins that cannot raise, the sort
  moves under the joins; the rows, their tie order and the errors stay
  those of the sort above them.
- **Narrowing.**  A plan answers alike whether its scans read the
  columns it names or whole rows.
"""

import itertools
import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.sql.optimizer import Planner
from repro.errors import DatabaseError, SqlSyntaxError
from repro.obs.metrics import disable_metrics, enable_metrics

from tests.db import test_external_sort as sorting
from tests.db import test_optimizer_differential as corpus

SEED = 2424

SCHEMA = (
    "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER, s TEXT)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, u INTEGER UNIQUE, "
    "w INTEGER)",
)

#: name -> (right key column, DDL that indexes it, the plan's join label).
RIGHT_KEYS = {
    "unindexed": ("k", None, "HashJoin[{kind}]"),
    "hash": ("k", "CREATE INDEX b_k ON b (k) USING hash",
             "IndexJoin[{kind}](… USING b_k)"),
    "btree": ("k", "CREATE INDEX b_k ON b (k) USING btree",
              "IndexJoin[{kind}](… USING b_k)"),
    "unique": ("u", None, "IndexJoin[{kind}](… USING $b_u_key)"),
    "primary key": ("id", None, "IndexJoin[{kind}](… USING $b_id_key)"),
}

#: ``{join}`` is ``JOIN`` / ``LEFT JOIN``, ``{key}`` the right key column.
STATEMENTS = (
    "SELECT a.id, a.s, b.id, b.w FROM a {join} b ON a.k = b.{key}",
    "SELECT a.id, b.id FROM a {join} b ON b.{key} = a.k AND a.v < b.w",
    "SELECT a.id, b.w FROM a {join} b ON a.k = b.{key} AND a.v > 3",
    "SELECT a.s, b.id FROM a {join} b ON a.k = b.{key} "
    "WHERE a.v IS NOT NULL",
    "SELECT a.id, b.id, c.id FROM a {join} b ON a.k = b.{key} "
    "{join} b AS c ON b.w = c.{key}",
)

#: ORDER BY … LIMIT over them, and whether the sort moves under the joins:
#: duplicate and NULL keys (``a.v``, ``a.k``), ASC and DESC, a WHERE on the
#: FROM table, the chain, an alias key — and, kept above, a residual, a
#: right-side key and a WHERE conjunct left above the join.
SORTED_STATEMENTS = (
    (STATEMENTS[0] + " ORDER BY a.v LIMIT 5", True),
    (STATEMENTS[0] + " ORDER BY a.v DESC, s LIMIT 7 OFFSET 3", True),
    (STATEMENTS[3] + " ORDER BY a.k DESC LIMIT 4 OFFSET 20", True),
    (STATEMENTS[4] + " ORDER BY a.s, a.v DESC LIMIT 9", True),
    ("SELECT a.v AS x, b.id FROM a {join} b ON a.k = b.{key} "
     "ORDER BY x DESC LIMIT 6", True),
    (STATEMENTS[1] + " ORDER BY a.v LIMIT 5", False),
    (STATEMENTS[0] + " ORDER BY b.w LIMIT 5", False),
    (STATEMENTS[0] + " ORDER BY a.v, b.id DESC LIMIT 5 OFFSET 2", False),
    ("SELECT a.id, b.id FROM a {join} b ON a.k = b.{key} "
     "WHERE a.v < b.w OR b.w IS NULL ORDER BY a.v LIMIT 5", False),
)


def _writes(rng):
    """The statements that fill ``a`` and ``b`` and then delete, move and
    re-insert rows of ``b``: a moved key sits last in its hash bucket,
    whatever its row id."""
    def cell(top):
        return rng.choice([None] + list(range(top)))

    writes = [("INSERT INTO a VALUES (?, ?, ?, ?)",
               [n, cell(8), cell(10), rng.choice(["x", "y", None])])
              for n in range(1, 31)]
    unique = rng.sample(range(-3, 30), 24)
    writes += [("INSERT INTO b VALUES (?, ?, ?, ?)",
                [n, cell(8), rng.choice([None, unique[n]]), cell(10)])
               for n in range(1, 21)]
    writes += [("DELETE FROM b WHERE id = ?", [n])
               for n in rng.sample(range(1, 21), 4)]
    writes += [("UPDATE b SET k = ? WHERE id = ?", [cell(8), n])
               for n in rng.sample(range(1, 21), 8)]
    writes += [("INSERT INTO b VALUES (?, ?, ?, ?)",
                [n, cell(8), unique[n], cell(10)]) for n in (21, 22, 23)]
    return writes


def _engine(writes, index=None, **config):
    database = Database(page_rows=4, **config)
    for statement in SCHEMA + ((index,) if index else ()):
        database.execute(statement)
    for sql, parameters in writes:
        database.execute(sql, parameters)
    return database


def _sqlite(writes):
    oracle = sqlite3.connect(":memory:")
    for statement in SCHEMA:
        oracle.execute(statement)
    for sql, parameters in writes:
        oracle.execute(sql, parameters)
    return oracle


def _multiset(rows):
    return sorted(map(tuple, rows), key=repr)


def _quarter_budget(writes):
    registry = enable_metrics()
    try:
        _engine(writes, layout="column").columnar.close()
        return max(1, int(registry.snapshot()["columnar_resident_peak"]) // 4)
    finally:
        disable_metrics()


def _label_matches(expected, plan):
    head, _, tail = expected.partition("…")
    return any(head in line and tail in line for line in plan.splitlines())


def _sort_moved(plan):
    """Does the plan sort under its first join?  (``None``: no Sort.)"""
    lines = [line.strip() for line in plan.splitlines()]
    sort = next((at for at, line in enumerate(lines)
                 if line.startswith("Sort(")), None)
    join = next(at for at, line in enumerate(lines) if "Join[" in line)
    return None if sort is None else sort > join


def _tie_broken(sql):
    """*sql* for SQLite, ties broken in the order every strategy keeps:
    left row order, then a left row's matches in right row order."""
    if "ORDER BY" not in sql:
        return sql
    head, _, tail = sql.partition(" LIMIT")
    ids = ", a.id, b.id" + (", c.id" if " c ON" in sql else "")
    return head + ids + " LIMIT" + tail


@pytest.mark.parametrize("emptied", [False, True], ids=["filled", "empty b"])
@pytest.mark.parametrize("name", RIGHT_KEYS)
def test_every_strategy_answers_like_the_nested_loop_and_sqlite(name,
                                                                 emptied):
    key, index, label = RIGHT_KEYS[name]
    writes = _writes(random.Random(f"join-strategies {SEED} {name}"))
    if emptied:
        writes.append(("DELETE FROM b", []))
    naive = _engine(writes, index, optimize=False)
    oracle = _sqlite(writes)
    configurations = [{}, {"layout": "column"},
                      {"layout": "column", "memory_budget": 64},
                      {"layout": "column",
                       "memory_budget": _quarter_budget(writes)}]
    for config in configurations:
        database = _engine(writes, index, **config)
        for template, moves in ([(template, None) for template in STATEMENTS]
                                + list(SORTED_STATEMENTS)):
            for join in ("JOIN", "LEFT JOIN"):
                sql = template.format(join=join, key=key)
                kind = "left" if "LEFT" in join else "inner"
                assert "NestedLoopJoin" in naive.explain(sql)
                assert _sort_moved(naive.explain(sql)) is (
                    None if moves is None else False)
                plan = database.explain(sql)
                assert _label_matches(label.format(kind=kind),
                                      plan), (sql, config)
                assert _sort_moved(plan) is moves, (sql, config)
                if moves:
                    # Only a LEFT join promises a row per left row.
                    assert ("; top " in plan) is (kind == "left"), plan
                registry = enable_metrics()
                try:
                    rows = database.query(sql).rows
                    runs = registry.snapshot().get("executor_spill_runs", 0)
                finally:
                    disable_metrics()
                assert rows == naive.query(sql).rows, (sql, config)
                assert _multiset(rows) == _multiset(oracle.execute(
                    _tie_broken(sql)).fetchall()), (sql, config)
                if "memory_budget" in config and not (emptied or moves
                                                      is not None):
                    # 19 right rows are past both budgets' share: a hash
                    # build spills them, an index join has nothing to (a
                    # sort of its own may).
                    assert (runs > 0) is (name == "unindexed"), (sql, config)


# -- kind strangers, NULL keys, first failures -------------------------------

def _strangers(optimize, index, layout="row"):
    database = Database(optimize=optimize, layout=layout, page_rows=2)
    database.register_function(
        "mixed", lambda n: n if n is None or n % 2 else str(n))
    database.execute("CREATE TABLE a (id INTEGER, f BOOLEAN, t TEXT, r REAL)")
    database.execute("CREATE TABLE b (id INTEGER, n INTEGER UNIQUE, "
                     "m INTEGER)")
    if index:
        database.execute(f"CREATE INDEX b_m ON b (m) USING {index}")
    database.execute("INSERT INTO a VALUES (1, TRUE, '1', 1.0), "
                     "(2, FALSE, '0', 0.5), (3, NULL, NULL, NULL), "
                     "(4, TRUE, '4', 0.0)")
    database.execute("INSERT INTO b VALUES (1, 1, 1), (2, 0, 0), "
                     "(3, NULL, NULL), (4, 4, 1)")
    return database


STRANGER_CONDITIONS = (
    "a.id = b.{key}",                # comparable: rows
    "a.r = b.{key}",                 # REAL x INTEGER: 1.0 finds 1
    "a.t = b.{key}",                 # TEXT x INTEGER: refused
    "a.f = b.{key}",                 # BOOLEAN x INTEGER: TRUE hashes to 1
    "b.{key} = a.f",                 # ... operands swapped
    "mixed(a.id) = b.{key}",         # one left column, two kinds
    "a.f = b.{key} AND a.id > 9",    # the residual never gets a say
    "a.id = b.{key} AND a.t = b.id",  # ... here it is what refuses
)


def _outcome(database, sql):
    try:
        return database.query(sql).rows
    except DatabaseError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("layout", ["row", "column"])
@pytest.mark.parametrize("key, index, strategy", [
    ("m", None, "HashJoin"), ("m", "hash", "IndexJoin"),
    ("m", "btree", "IndexJoin"), ("n", None, "IndexJoin")])
def test_a_stranger_key_raises_or_matches_what_the_nested_loop_does(
        key, index, strategy, layout):
    optimized = _strangers(True, index, layout)
    naive = _strangers(False, index, layout)
    for condition in STRANGER_CONDITIONS:
        for join, order in itertools.product(
                ("JOIN", "LEFT JOIN"), ("", " ORDER BY a.id DESC LIMIT 2")):
            sql = (f"SELECT a.id, b.id FROM a {join} b "
                   f"ON {condition.format(key=key)}{order}")
            assert strategy in optimized.explain(sql), sql
            assert "NestedLoopJoin" in naive.explain(sql), sql
            # Only keys declared with one type let the sort move: a
            # stranger (``TRUE = 1``) is refused where the loop refuses it.
            assert _sort_moved(optimized.explain(sql)) is (
                (condition == "a.id = b.{key}") if order else None), sql
            assert _outcome(optimized, sql) == _outcome(naive, sql), sql


def test_the_refusals_are_the_ones_compare_words():
    for key, index in (("m", None), ("m", "hash"), ("n", None)):
        database = _strangers(True, index)
        select = f"SELECT a.id, b.id FROM a JOIN b ON {{}} = b.{key}"
        assert _outcome(database, select.format("a.f")) == (
            "TypeCheckError", "cannot compare bool with int")
        assert _outcome(database, select.format("a.t")) == (
            "TypeCheckError", "cannot compare str with int")
        assert _outcome(database, select.format("mixed(a.id)")) == (
            "TypeCheckError", "cannot compare str with int")
        # 1.0 = 1 holds (twice, on the duplicate key); 0.5 finds nothing.
        assert sorted(_outcome(database, select.format("a.r"))) == sorted(
            [(1, 1), (4, 2)] + ([(1, 4)] if key == "m" else []))


def test_nothing_to_compare_with_means_no_refusal():
    # No non-NULL right key: the nested loop never compares, so a key of
    # any kind joins nothing and raises nothing.
    for index in (None, "hash", "btree"):
        for optimize in (True, False):
            database = _strangers(optimize, index)
            database.execute("UPDATE b SET m = NULL, n = NULL")
            for key in ("m", "n"):
                sql = f"SELECT a.id, b.id FROM a LEFT JOIN b ON a.f = b.{key}"
                assert _outcome(database, sql) == [
                    (1, None), (2, None), (3, None), (4, None)]


def _fussy_pair(optimize, index):
    database = Database(optimize=optimize)
    database.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
    database.execute("CREATE TABLE b (id INTEGER, k INTEGER, w INTEGER)")
    if index:
        database.execute(f"CREATE INDEX b_k ON b (k) USING {index}")

    def fussy(value):
        if value == 13:
            raise ValueError("unlucky")
        return value

    database.register_function("fussy", fussy)
    database.executemany("INSERT INTO a VALUES (?, ?)",
                         [(n, n % 5) for n in range(20)])
    database.executemany("INSERT INTO b VALUES (?, ?, ?)",
                         [(n, n % 5, n) for n in range(15)])
    return database


@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
def test_a_failing_pair_is_met_where_one_row_at_a_time_meets_it(join):
    # b.w = 13 sits behind k = 3: left row 3's third pair, after the
    # ten rows rows 0 to 3 keep (b.w = 12 is tested and dropped).  Every
    # one of them is delivered, under every strategy, and then the error.
    sql = (f"SELECT a.id, b.id FROM a {join} b "
           f"ON a.k = b.k AND fussy(b.w) < 12")
    naive = _fussy_pair(False, None)
    before = naive.query(sql + " LIMIT 10").rows
    assert before[-3:] == [(2, 7), (3, 3), (3, 8)] and len(before) == 10
    for index in (None, "hash", "btree"):
        database = _fussy_pair(True, index)
        assert ("IndexJoin" if index else "HashJoin") in database.explain(sql)
        for limit in (1, 5, 10):
            assert database.query(
                f"{sql} LIMIT {limit}").rows == before[:limit]
        for engine in (database, naive):
            with pytest.raises(DatabaseError,
                               match="function 'fussy' failed: unlucky"):
                engine.query(f"{sql} LIMIT 11")


@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
def test_a_sorted_limit_raises_where_the_sort_above_the_join_does(join):
    # Sorted first, a-row 19 (k = 4) would deliver two rows before any
    # pair meets b.w = 13; the sort above the join meets it first, so a
    # failing residual keeps the sort there.
    sql = (f"SELECT a.id, b.id FROM a {join} b "
           f"ON a.k = b.k AND fussy(b.w) < 12 ORDER BY a.id DESC LIMIT 2")
    # A failing projection is evaluated per row consumed, either way.
    projected = (f"SELECT a.id, fussy(b.w) FROM a {join} b ON a.k = b.k "
                 f"ORDER BY a.k DESC, a.id LIMIT {{}}")
    naive = _fussy_pair(False, None)
    for index in (None, "hash", "btree"):
        database = _fussy_pair(True, index)
        assert _sort_moved(database.explain(sql)) is False
        for engine in (database, naive):
            with pytest.raises(DatabaseError,
                               match="function 'fussy' failed: unlucky"):
                engine.query(sql)
        assert _sort_moved(database.explain(projected.format(1)))
        for limit in range(1, 16):
            assert _outcome(database, projected.format(limit)) == _outcome(
                naive, projected.format(limit)), limit


# -- top-n ≡ sort + limit -----------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(sorting._tables, sorting._items, st.integers(0, 50),
       st.sampled_from([None, 0, 1, 3, 10]))
def test_a_bounded_sort_is_the_sort_cut(cells, items, limit, offset):
    sql = "SELECT * FROM t ORDER BY " + ", ".join(
        f"{text} {'ASC' if ascending else 'DESC'}"
        for text, ascending in items) + f" LIMIT {limit}" + (
        "" if offset is None else f" OFFSET {offset}")
    skip = offset or 0
    expected = None
    for name, database in sorting._configurations(cells):
        if expected is None:
            # LIMIT 0 asks its input for nothing: not even a failing key.
            expected = sorting._outcome(
                lambda: sorting._sorted_by_reference(database, items)[
                    skip:skip + limit] if limit else [])
        assert f"; top {skip + limit})" in database.explain(sql)
        registry = enable_metrics()
        try:
            outcome = sorting._outcome(lambda: database.execute(sql).rows)
            runs = registry.snapshot().get("executor_spill_runs", 0)
        finally:
            disable_metrics()
        assert outcome == expected, (name, sql)
        if name == "column under 512 B" and 2 * (skip + limit) <= 8:
            # Eight rows fill a chunk; pruned to half of one or less it
            # is held on: a small LIMIT writes no run.
            assert runs == 0, sql


def test_distinct_keeps_the_limit_from_bounding_the_sort():
    cells = [(n % 3, 0.5, "a", None, None, "ACGT") for n in range(30)]
    database = sorting._database(cells)
    plain = database.explain("SELECT k FROM t ORDER BY k DESC LIMIT 2")
    assert "Sort(k DESC; top 2)" in plain
    distinct = "SELECT DISTINCT k FROM t ORDER BY k DESC LIMIT 2"
    assert "Sort(k DESC)" in database.explain(distinct)
    assert "top" not in database.explain(distinct)
    assert database.execute(distinct).rows == [(2,), (1,)]
    assert "top" not in database.explain("SELECT k FROM t ORDER BY k")


def test_ties_at_the_cut_fall_as_the_full_sort_lets_them():
    # 3000 rows in doubling batches, pruned as they arrive: the survivors
    # of a tie are the earliest rows, as in the full stable sort.
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, k INTEGER)")
    database.executemany("INSERT INTO t VALUES (?, ?)",
                         [(n, n % 4) for n in range(3000)])
    everything = database.query("SELECT id FROM t ORDER BY k DESC").rows
    for limit, offset in ((5, 0), (7, 750), (800, 0), (3000, 10)):
        assert database.query(
            f"SELECT id FROM t ORDER BY k DESC LIMIT {limit} "
            f"OFFSET {offset}").rows == everything[offset:offset + limit]


# -- narrowing ----------------------------------------------------------------

def _whole_rows(monkeypatch):
    monkeypatch.setattr(Planner, "_narrow_scans", lambda self, plan: None)


def test_a_narrowed_plan_answers_like_the_whole_row_plan(monkeypatch):
    rng = random.Random(f"join-strategies {SEED} narrowing")
    t_rows, u_rows = corpus._generate_rows(rng)
    statements = ([corpus._select_query(rng) for _ in range(60)]
                  + [corpus._join_query(rng) for _ in range(60)])
    narrowed = corpus._build_ours(True, t_rows, u_rows)
    answers = [narrowed.query(sql).rows for sql in statements]
    assert any("; columns " in narrowed.explain(sql) for sql in statements)
    _whole_rows(monkeypatch)
    whole = corpus._build_ours(True, t_rows, u_rows)
    for sql, answer in zip(statements, answers):
        assert "columns" not in whole.explain(sql)
        assert whole.query(sql).rows == answer, sql


@pytest.mark.parametrize("layout", ["row", "column"])
def test_every_scan_names_its_read_set(layout):
    writes = _writes(random.Random(f"join-strategies {SEED} labels"))
    database = _engine(writes, "CREATE INDEX b_w ON b (w) USING btree",
                       layout=layout)
    scan = "SeqScan" if layout == "row" else "ColumnarScan"
    for sql, lines in (
        ("SELECT s FROM a", [f"{scan}(a AS a; columns s)"]),
        ("SELECT count(*) FROM a", [f"{scan}(a AS a; columns none)"]),
        ("SELECT * FROM a", [f"{scan}(a AS a)"]),
        ("SELECT s FROM a WHERE id = 3",
         ["IndexEqualScan(a AS a USING $a_id_key ON id = 3; columns s)"]),
        ("SELECT k FROM b WHERE w > 3 AND u IS NULL",
         ["IndexRangeScan(b AS b USING b_w ON w IN (3, +inf]; "
          "columns k, u)"]),
        ("SELECT a.s, b.w FROM a JOIN b ON a.k = b.id",
         [f"{scan}(a AS a; columns k, s)", f"{scan}(b AS b; columns id, w)"]),
        ("DELETE FROM a WHERE v > 2", [f"{scan}(a AS a; columns v"]),
    ):
        plan = database.explain(sql)
        for line in lines:
            assert line in plan, (sql, plan)


def test_an_ambiguous_name_still_raises_as_ambiguous(monkeypatch):
    writes = _writes(random.Random(f"join-strategies {SEED} ambiguous"))
    sql = "SELECT id FROM a JOIN b ON a.k = b.k"
    outcomes = [_outcome(_engine(writes, optimize=optimize), sql)
                for optimize in (True, False)]
    _whole_rows(monkeypatch)
    outcomes.append(_outcome(_engine(writes), sql))
    assert set(outcomes) == {
        ("SqlSyntaxError", "ambiguous column reference 'id'")}
    with pytest.raises(SqlSyntaxError):
        _engine(writes).query("SELECT a.id FROM a JOIN b ON k = b.k")


def test_a_level_with_a_sub_select_keeps_whole_rows():
    writes = _writes(random.Random(f"join-strategies {SEED} correlated"))
    optimized, naive = _engine(writes), _engine(writes, optimize=False)
    for sql in (
        "SELECT a.id FROM a WHERE EXISTS "
        "(SELECT 1 FROM b WHERE b.k = a.k AND b.w > v)",
        "SELECT s FROM a WHERE k IN (SELECT k FROM b WHERE w < a.v)",
    ):
        outer = optimized.explain(sql).splitlines()[-1]
        assert outer.strip().startswith("SeqScan(a AS a)"), outer
        assert optimized.query(sql).rows == naive.query(sql).rows
    # The sub-select's own level names what it reads — the outer row's
    # columns are not its scan's to drop.
    correlated = ("SELECT a.id FROM a WHERE EXISTS "
                  "(SELECT 1 FROM b WHERE b.k = a.k AND b.w > v)")
    optimized.query(correlated)
    (subplan,) = optimized._prepare(correlated).subplans.values()
    assert "SeqScan(b AS b; columns k, w)" in subplan.explain()


@pytest.mark.parametrize("sql, parameters", [
    ("DELETE FROM b WHERE w > ?", [4]),
    ("UPDATE b SET w = 0 WHERE k = ? AND u IS NOT NULL", [3]),
    ("DELETE FROM b WHERE id >= ? AND w < 8", [6]),
    ("DELETE FROM b", []),
])
def test_a_write_through_a_narrowed_scan_changes_the_same_row_ids(
        monkeypatch, sql, parameters):
    writes = _writes(random.Random(f"join-strategies {SEED} writes"))
    index = "CREATE INDEX b_k ON b (k) USING hash"
    narrowed = _engine(writes, index)
    assert "; columns " in narrowed.explain(sql)
    ids = narrowed._prepare(sql).plan.row_ids(parameters)
    count = narrowed.execute(sql, parameters)
    assert count == len(ids)
    _whole_rows(monkeypatch)
    whole = _engine(writes, index)
    assert "columns" not in whole.explain(sql)
    assert whole._prepare(sql).plan.row_ids(parameters) == ids
    assert whole.execute(sql, parameters) == count
    everything = "SELECT * FROM b"
    assert whole.query(everything).rows == narrowed.query(everything).rows
