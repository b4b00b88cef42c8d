"""Index probes must type-check like the scan comparison they replace.

``optimize=True`` answers ``column = ?`` / ``column < ?`` from an index;
``optimize=False`` compares the probe with every stored value.  Both
must give the same rows — or raise the same error — for every probe
type, over every kind of index the planner can pick.
"""

import pytest

from repro.db import Database
from repro.errors import TypeCheckError

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, code TEXT UNIQUE, "
    "name TEXT, score REAL, size INTEGER)"
)
ROWS = [
    (1, "c1", "alpha", 1.0, 10),
    (2, "c2", "beta", 2.5, 20),
    (3, None, None, None, None),
    (4, "c4", "alpha", 0.0, 1),
]

#: column -> how the optimizing database reaches it.
COLUMNS = {
    "id": "primary key",
    "code": "unique",
    "name": "hash index",
    "score": "hash index",
    "size": "btree index",
}

PROBES = [
    pytest.param(1, id="int"),
    pytest.param(1.0, id="float"),
    pytest.param(2.5, id="fraction"),
    pytest.param(True, id="bool"),
    pytest.param("alpha", id="str"),
    pytest.param("c1", id="key-str"),
    pytest.param(None, id="null"),
]


def build(optimize: bool, rows=ROWS) -> Database:
    database = Database(optimize=optimize)
    database.execute(SCHEMA)
    database.execute("CREATE INDEX i_name ON t (name) USING hash")
    database.execute("CREATE INDEX i_score ON t (score) USING hash")
    database.execute("CREATE INDEX i_size ON t (size) USING btree")
    database.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    return database


def outcome(database: Database, sql: str, parameters):
    """The rows, or the error's text: both engines must say the same."""
    try:
        return sorted(database.query(sql, parameters).rows)
    except TypeCheckError as error:
        return str(error)


@pytest.fixture(scope="module")
def engines():
    return build(True), build(False)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("column", COLUMNS)
def test_equality_probe_matches_scan(engines, column, probe):
    indexed, scanned = engines
    for sql in (f"SELECT id FROM t WHERE {column} = ?",
                f"SELECT id FROM t WHERE ? = {column}"):
        assert "IndexEqualScan" in indexed.explain(sql)
        assert "SeqScan" in scanned.explain(sql)
        assert (outcome(indexed, sql, [probe])
                == outcome(scanned, sql, [probe]))


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("shape", [
    "size > ?", "size <= ?", "? < size", "size BETWEEN ? AND 15",
    "size BETWEEN 5 AND ?",
])
def test_range_probe_matches_scan(engines, shape, probe):
    indexed, scanned = engines
    sql = f"SELECT id FROM t WHERE {shape}"
    assert "IndexRangeScan" in indexed.explain(sql)
    assert outcome(indexed, sql, [probe]) == outcome(scanned, sql, [probe])


def test_the_two_reported_cases(engines):
    indexed, _ = engines
    with pytest.raises(TypeCheckError, match="cannot compare str with int"):
        indexed.query("SELECT id FROM t WHERE name = ?", [1])
    # 1.0 hashes like True; the index must not hand the row back.
    with pytest.raises(TypeCheckError):
        indexed.query("SELECT id FROM t WHERE score = TRUE")


@pytest.mark.parametrize("rows", [[], [(1, None, None, None, None)]],
                         ids=["empty", "all-null"])
def test_nothing_to_compare_with_means_no_error(rows):
    """A scan over no non-NULL values never compares, so never raises;
    neither may the index."""
    indexed, scanned = build(True, rows), build(False, rows)
    for column in ("code", "name", "score", "size"):
        sql = f"SELECT id FROM t WHERE {column} = ?"
        assert (outcome(indexed, sql, [True])
                == outcome(scanned, sql, [True]) == [])


def write_outcome(optimize: bool, sql: str, parameters):
    """What a write leaves behind — the rows, and how many it said it
    changed — or the error's text, with the table as it was."""
    database = build(optimize)
    try:
        changed = database.execute(sql, parameters)
    except TypeCheckError as error:
        changed = str(error)
    return changed, sorted(database.query("SELECT id, name FROM t").rows)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("column", COLUMNS)
def test_a_write_probes_like_the_scan_it_replaces(column, probe):
    for sql in (f"DELETE FROM t WHERE {column} = ?",
                f"UPDATE t SET name = 'hit' WHERE ? = {column}",
                f"DELETE FROM t WHERE {column} >= ? AND name = 'alpha'"):
        indexed = write_outcome(True, sql, [probe])
        assert indexed == write_outcome(False, sql, [probe]), sql
        if isinstance(indexed[0], str):     # refused: nothing changed
            assert indexed[1] == sorted((row[0], row[2]) for row in ROWS)


def test_a_mistyped_key_in_a_write_raises_what_the_scan_raised():
    for optimize in (True, False):
        database = build(optimize)
        plan = database.explain("DELETE FROM t WHERE id = 'x'")
        assert ("IndexEqualScan" in plan) is optimize
        with pytest.raises(TypeCheckError,
                           match="cannot compare int with str"):
            database.execute("DELETE FROM t WHERE id = 'x'")
        with pytest.raises(TypeCheckError,
                           match="cannot compare str with int"):
            database.execute("UPDATE t SET size = 0 WHERE code = ?", [7])
        assert database.query("SELECT count(*) FROM t").scalar() == len(ROWS)
