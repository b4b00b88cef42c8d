"""The statement/plan cache must be invisible except in speed.

Every statement runs from ``Database._prepare``: parsed once per text,
planned once per catalog version.  These tests pin the other half of
that sentence — whatever happens between two executions of one text,
the second gives the answer a database that never cached anything gives.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.db import Database
from repro.db import database as database_module
from repro.db.index import HashIndex
from repro.db.recovery import recover
from repro.db.storage import WriteAheadLog, save_database
from repro.errors import CatalogError, DatabaseError
from repro.obs.export import InMemorySink

SELECT = "SELECT id, name FROM genes WHERE name = ? ORDER BY id"


def seed(database: Database) -> None:
    database.execute(
        "CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT, "
        "length INTEGER)"
    )
    database.executemany(
        "INSERT INTO genes VALUES (?, ?, ?)",
        [(1, "lacZ", 30), (2, "recA", 10), (3, "lacZ", 20), (4, None, 5)],
    )
    database.register_function("shout", lambda text: text.upper())


def shape(plan_text: str) -> list[str]:
    """EXPLAIN text without the row estimates."""
    return [line.split("  (~")[0] for line in plan_text.splitlines()]


# -- what may happen between two executions of one text ---------------------

def recreate_with_other_schema(database):
    database.execute("DROP TABLE genes")
    database.execute("CREATE TABLE genes (name TEXT, id INTEGER)")
    database.execute("INSERT INTO genes VALUES ('lacZ', 9)")


def create_index(database):
    database.execute("CREATE INDEX by_name ON genes (name) USING hash")


def create_then_drop_index(database):
    create_index(database)
    database.query(SELECT, ["lacZ"])          # caches the index plan
    database.execute("DROP INDEX by_name ON genes")


def analyze(database):
    create_index(database)
    database.execute("CREATE INDEX by_length ON genes (length)")
    database.execute("ANALYZE genes")


def attach_directly(database):
    database.catalog.table("genes").attach_index(
        HashIndex("side_door", "genes", "name"))


def rolled_back_writes(database):
    database.begin()
    database.execute("INSERT INTO genes VALUES (7, 'lacZ', 1)")
    database.execute("DELETE FROM genes WHERE id = 1")
    assert database.query(SELECT, ["lacZ"]).rows == [(3, "lacZ"), (7, "lacZ")]
    database.rollback()


EVENTS = [recreate_with_other_schema, create_index, create_then_drop_index,
          analyze, attach_directly, rolled_back_writes]


@pytest.mark.parametrize("event", EVENTS, ids=lambda event: event.__name__)
def test_cached_select_tracks_the_catalog(event):
    cached = Database()
    seed(cached)
    cached.query(SELECT, ["lacZ"])
    cached.explain(SELECT)
    event(cached)

    fresh = Database()
    seed(fresh)
    event(fresh)
    fresh._statements.clear()

    for parameters in (["lacZ"], ["recA"], ["nope"]):
        assert (cached.query(SELECT, parameters).rows
                == fresh.query(SELECT, parameters).rows)
    assert shape(cached.explain(SELECT)) == shape(fresh.explain(SELECT))


WRITE = "UPDATE genes SET id = id + 10 WHERE name = ?"


@pytest.mark.parametrize("event", EVENTS, ids=lambda event: event.__name__)
def test_cached_write_tracks_the_catalog(event):
    """An UPDATE's access path is cached and invalidated like a
    SELECT's plan: after any catalog event the same text changes the
    rows, by the path, a database that never cached anything does."""
    cached = Database()
    seed(cached)
    assert cached.execute(WRITE, ["nope"]) == 0     # planned, and cached
    event(cached)

    fresh = Database()
    seed(fresh)
    event(fresh)
    fresh._statements.clear()

    assert shape(cached.explain(WRITE)) == shape(fresh.explain(WRITE))
    for parameters in (["lacZ"], ["recA"], ["nope"]):
        assert (cached.execute(WRITE, parameters)
                == fresh.execute(WRITE, parameters))
    everything = "SELECT * FROM genes ORDER BY id"
    assert cached.query(everything).rows == fresh.query(everything).rows


def test_a_write_is_planned_once_and_replanned_by_an_index():
    database = Database()
    seed(database)
    database.execute(WRITE, ["lacZ"])
    plan = database._prepare(WRITE).plan
    assert shape(plan.explain()) == [
        "Update(genes)", "  Filter((name = ?))",
        "    SeqScan(genes AS genes; columns name)"]
    database.execute(WRITE, ["recA"])
    assert database._prepare(WRITE).plan is plan
    create_index(database)
    assert shape(database.explain(WRITE)) == [
        "Update(genes)",
        "  IndexEqualScan(genes AS genes USING by_name ON name = ?; "
        "columns none)"]
    assert database.execute(WRITE, ["lacZ"]) == 2
    assert database.query("SELECT id FROM genes ORDER BY id").column(
        "id") == [4, 12, 21, 23]


def test_analyze_replans_with_the_new_statistics():
    database = Database()
    seed(database)
    analyze_sql = "SELECT id FROM genes WHERE name = ? AND length = ?"
    create_index(database)
    database.execute("CREATE INDEX by_length ON genes (length)")
    before = database.explain(analyze_sql)
    database.execute("ANALYZE genes")
    after = database.explain(analyze_sql)
    assert "by_name" in before and "by_length" in after


def test_replaced_function_is_replanned_and_rerun():
    database = Database()
    seed(database)
    sql = "SELECT shout(name) FROM genes WHERE id = 1"
    assert database.query(sql).scalar() == "LACZ"
    database.register_function("shout", lambda text: text + "!",
                               replace=True)
    assert database.query(sql).scalar() == "lacZ!"


def test_selectivity_of_a_replaced_function_reaches_the_plan():
    database = Database()
    seed(database)
    database.register_function("keep", lambda value: True, selectivity=0.5)
    sql = "SELECT id FROM genes WHERE keep(id)"
    assert "(~2 rows)" in database.explain(sql)
    database.register_function("keep", lambda value: True,
                               selectivity=0.25, replace=True)
    assert "(~1 rows)" in database.explain(sql)


def test_failed_planning_is_retried_not_cached():
    database = Database()
    with pytest.raises(CatalogError):
        database.query(SELECT, ["lacZ"])
    seed(database)
    assert database.query(SELECT, ["recA"]).rows == [(2, "recA")]
    database.execute("DROP TABLE genes")
    with pytest.raises(CatalogError):
        database.query(SELECT, ["lacZ"])


def test_recovery_into_a_fresh_and_into_a_warm_database(tmp_path):
    image, wal_path = str(tmp_path / "image"), str(tmp_path / "wal")
    source = Database()
    source.execute(
        "CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT, "
        "length INTEGER)"
    )
    source.execute("INSERT INTO genes VALUES (1, 'lacZ', 30)")
    save_database(source, image)
    wal = WriteAheadLog(wal_path, source)
    wal.attach()
    source.execute("CREATE INDEX by_name ON genes (name) USING hash")
    source.execute("INSERT INTO genes VALUES (3, 'lacZ', 20)")
    wal.close()
    expected = source.query(SELECT, ["lacZ"]).rows

    fresh, _ = recover(image, wal_path)
    assert fresh.query(SELECT, ["lacZ"]).rows == expected
    assert shape(fresh.explain(SELECT)) == shape(source.explain(SELECT))

    warm = Database()
    with pytest.raises(CatalogError):
        warm.query(SELECT, ["lacZ"])
    recover(image, wal_path, warm)
    assert warm.query(SELECT, ["lacZ"]).rows == expected
    assert "by_name" in warm.explain(SELECT)


# -- the cache itself ----------------------------------------------------------

def test_one_entry_serves_every_parameter_list():
    database = Database()
    seed(database)
    answers = [database.query(SELECT, [name]).rows
               for name in ("lacZ", "recA", "lacZ", None, "x")]
    assert answers == [[(1, "lacZ"), (3, "lacZ")], [(2, "recA")],
                       [(1, "lacZ"), (3, "lacZ")], [], []]
    assert list(database._statements).count(SELECT) == 1
    entry = database._statements[SELECT]
    database.query(SELECT, ["recA"])
    assert database._statements[SELECT] is entry
    assert database._prepare(SELECT).plan is entry.plan


def test_lru_eviction_at_the_bound():
    database = Database()
    seed(database)
    bound = database_module.STATEMENT_CACHE_SIZE
    database._statements.clear()
    texts = [f"SELECT {n} FROM genes WHERE id = 1" for n in range(bound)]
    for text in texts:
        database.query(text)
    assert len(database._statements) == bound
    database.query(texts[0])                       # oldest becomes newest
    database.query("SELECT -1 FROM genes WHERE id = 1")
    assert len(database._statements) == bound
    assert texts[0] in database._statements
    assert texts[1] not in database._statements
    assert database.query(texts[1]).scalar() == 1  # evicted, still right


def test_spans_are_emitted_per_statement_and_say_hit_or_miss():
    database = Database()
    seed(database)
    sink = InMemorySink()
    obs.enable(sink=sink)
    try:
        database.query(SELECT, ["lacZ"])
        database.query(SELECT, ["recA"])
        database.execute("INSERT INTO genes VALUES (8, 'x', 1)")
        database.execute("INSERT INTO genes VALUES (9, 'y', 1)")
        # An UPDATE / DELETE is planned, and says so, like a SELECT.
        database.execute("DELETE FROM genes WHERE id = ?", [8])
        database.execute("DELETE FROM genes WHERE id = ?", [9])
        database.execute(WRITE, ["lacZ"])
    finally:
        obs.disable()
    tagged = [(span["name"], span["attrs"]["cache"])
              for span in sink.spans()
              if span["name"] in ("sql.parse", "sql.plan")]
    assert tagged == [
        ("sql.parse", "miss"), ("sql.plan", "miss"),
        ("sql.parse", "hit"), ("sql.plan", "hit"),
        ("sql.parse", "miss"), ("sql.parse", "miss"),
        ("sql.parse", "miss"), ("sql.plan", "miss"),
        ("sql.parse", "hit"), ("sql.plan", "hit"),
        ("sql.parse", "miss"), ("sql.plan", "miss"),
    ]


def test_missing_parameters_are_a_database_error():
    database = Database()
    seed(database)
    with pytest.raises(DatabaseError, match="SELECT id, name FROM genes"):
        database.execute(SELECT, None)
    with pytest.raises(DatabaseError, match="DELETE FROM genes"):
        database.execute("DELETE FROM genes", None)
    assert len(database.catalog.table("genes")) == 4


# -- re-entrancy: one plan object, many executions at once ---------------------

REENTRANT = [
    "SELECT id FROM genes WHERE id = ?",
    "SELECT id FROM genes WHERE length >= ? ORDER BY length DESC",
    "SELECT name, count(*) FROM genes WHERE length >= ? GROUP BY name",
    "SELECT a.id, b.id FROM genes a JOIN genes b ON a.name = b.name "
    "WHERE a.length >= ?",
    "SELECT DISTINCT name FROM genes WHERE length >= ? LIMIT 3",
]


@pytest.mark.parametrize("layout, budget", [
    ("row", None), ("column", None), ("column", 256),
], ids=["row", "column", "column-spilling"])
@pytest.mark.parametrize("sql", REENTRANT)
def test_two_executions_of_one_plan_interleave(sql, layout, budget):
    database = Database(layout=layout, page_rows=2, memory_budget=budget)
    seed(database)
    plan = database._prepare(sql).plan
    alone = [list(plan.execute([value], None)) for value in (1, 20)]
    first, second = plan.execute([1], None), plan.execute([20], None)
    mixed: list[list] = [[], []]
    live = [(first, mixed[0]), (second, mixed[1])]
    while live:
        for pair in list(live):
            generator, rows = pair
            try:
                rows.append(next(generator))
            except StopIteration:
                live.remove(pair)
    assert mixed == alone
    assert database._prepare(sql).plan is plan


def test_subquery_with_the_text_of_a_cached_outer_statement():
    database = Database()
    seed(database)
    inner = "SELECT id FROM genes WHERE length >= 20"
    assert database.query(inner).column("id") == [1, 3]
    outer = f"SELECT name FROM genes WHERE id IN ({inner}) ORDER BY id"
    assert database.query(outer).column("name") == ["lacZ", "lacZ"]
    assert database.query(inner).column("id") == [1, 3]


def test_correlated_subquery_is_planned_once_per_statement():
    database = Database()
    seed(database)
    sql = ("SELECT g.id FROM genes g WHERE EXISTS (SELECT 1 FROM genes h "
           "WHERE h.name = g.name AND h.id <> g.id) ORDER BY g.id")
    planner = database._planner
    with mock.patch.object(planner, "plan_select",
                           wraps=planner.plan_select) as plan_select:
        assert database.query(sql).column("id") == [1, 3]
        assert database.query(sql).column("id") == [1, 3]
        assert plan_select.call_count == 2     # the statement, the subquery
        database.execute("CREATE INDEX by_name ON genes (name) USING hash")
        assert database.query(sql).column("id") == [1, 3]
        assert plan_select.call_count == 4     # both again, once
    dml = ("DELETE FROM genes WHERE EXISTS (SELECT 1 FROM genes h "
           "WHERE h.name = genes.name AND h.id < genes.id)")
    with mock.patch.object(planner, "plan_select",
                           wraps=planner.plan_select) as plan_select:
        assert database.execute(dml) == 1
        assert plan_select.call_count == 1
    assert database._running is None


# -- random histories: cached + optimizing ≡ naive ------------------------------

SELECTS = [
    ("SELECT id, a FROM t0 WHERE id = ?", 1),
    ("SELECT count(*) FROM t0 WHERE a = ?", 1),
    ("SELECT id FROM t0 WHERE a BETWEEN ? AND ? ORDER BY id", 2),
    ("SELECT s FROM t1 WHERE s = ?", 1),
    ("SELECT t0.id, t1.id FROM t0 JOIN t1 ON t0.a = t1.a WHERE t1.id = ?", 1),
    # The subquery is the only outer conjunct: beside another one, which
    # of the two an engine evaluates first decides whether a dropped t1
    # is noticed at all, and the two planners legitimately differ.
    ("SELECT id FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.a = t0.a "
     "AND t1.id >= ?)", 1),
    ("SELECT a, count(*) FROM t1 WHERE a >= ? GROUP BY a", 1),
]
SCHEMAS = [
    "CREATE TABLE {t} (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)",
    "CREATE TABLE {t} (id INTEGER PRIMARY KEY, s TEXT UNIQUE, a INTEGER)",
    "CREATE TABLE {t} (s TEXT, a INTEGER, id INTEGER)",
]
small = st.integers(0, 6)
tables = st.sampled_from(["t0", "t1"])
texts = st.sampled_from(["x", "y", "z"])

steps = st.one_of(
    st.tuples(st.just("create"), tables, st.sampled_from(SCHEMAS)),
    st.tuples(st.just("drop"), tables),
    st.tuples(st.just("index"), tables, st.sampled_from(["a", "s", "id"]),
              st.sampled_from(["hash", "btree"])),
    st.tuples(st.just("unindex"), tables, st.sampled_from(["a", "s", "id"])),
    st.tuples(st.just("analyze"), tables),
    st.tuples(st.just("insert"), tables, small, small, texts),
    st.tuples(st.just("update"), tables, small, small),
    st.tuples(st.just("delete"), tables, small),
    st.tuples(st.just("txn"), st.sampled_from(["begin", "commit",
                                               "rollback"])),
    st.tuples(st.just("select"), st.sampled_from(SELECTS), small, small),
)


def perform(database: Database, step: tuple):
    kind = step[0]
    if kind == "create":
        return database.execute(step[2].format(t=step[1]))
    if kind == "drop":
        return database.execute(f"DROP TABLE {step[1]}")
    if kind == "index":
        _, table, column, using = step
        return database.execute(
            f"CREATE INDEX i_{table}_{column} ON {table} ({column}) "
            f"USING {using}")
    if kind == "unindex":
        return database.execute(
            f"DROP INDEX i_{step[1]}_{step[2]} ON {step[1]}")
    if kind == "analyze":
        return database.execute(f"ANALYZE {step[1]}")
    if kind == "insert":
        _, table, key, value, text = step
        return database.execute(
            f"INSERT INTO {table} (id, a, s) VALUES (?, ?, ?)",
            [key, value, text])
    if kind == "update":
        return database.execute(
            f"UPDATE {step[1]} SET a = ? WHERE id = ?", [step[3], step[2]])
    if kind == "delete":
        return database.execute(
            f"DELETE FROM {step[1]} WHERE a = ?", [step[2]])
    if kind == "txn":
        return getattr(database, step[1])()
    (sql, arity), low, high = step[1], step[2], step[3]
    if "s = ?" in sql:
        parameters = ["xyz"[low % 3]]
    else:
        parameters = [low, low + high][:arity]
    return sorted(database.query(sql, parameters).rows,
                  key=lambda row: tuple(map(repr, row)))


def outcome(database: Database, step: tuple):
    try:
        return perform(database, step)
    except DatabaseError as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, min_size=5, max_size=40))
def test_random_histories_match_the_uncached_naive_engine(history):
    setup = [("create", "t0", SCHEMAS[0]), ("create", "t1", SCHEMAS[1])]
    with mock.patch.object(database_module, "STATEMENT_CACHE_SIZE", 4):
        cached, naive = Database(optimize=True), Database(optimize=False)
        for step in setup + history:
            mine = outcome(cached, step)
            naive._statements.clear()
            assert mine == outcome(naive, step), step
