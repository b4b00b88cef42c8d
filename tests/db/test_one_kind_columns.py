"""One-kind columns: a page with no NULL compares and folds as whole
columns, and answers exactly as the per-cell path does.

A dense INT, FLOAT, BOOL or DICT page decodes to a
:class:`~repro.db.values.OneKind` column.  Against one, a comparison or
``[NOT] BETWEEN`` whose other operands share its kind (another such
column, or a row-invariant value whose kind is read once a batch) is one
``map`` of an ``operator`` function, and ``min`` / ``max`` / ``avg`` /
``sum`` / ``count`` skip the NULL filter and the sort keys.  Everything
else — a page with a NULL, an operand of another kind, NULL, a UDT —
goes through :func:`~repro.db.values.compare` cell by cell.

The differential draws the pages and the operands and holds the column
layout, at budgets none, a quarter and 64 bytes, to the row layout (no
page, no marker): rows equal, or the first error equal as ``(type,
message)``.  The pinned test patches ``compare`` to refuse, which shows
the fast path is taken where it should be and the fallback everywhere
else.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, OpaqueType, values
from repro.db.values import NULL, OneKind
from repro.errors import DatabaseError


@dataclass(frozen=True)
class Tag:
    """A UDT equal by value, with no order: ``<`` on two of them fails."""

    n: int


_TAG = OpaqueType("TAG", Tag, lambda tag: bytes([tag.n]),
                  lambda data: Tag(data[0]))

#: Column -> its declared type and the values a row draws for it.
_FLOATS = st.one_of(st.floats(-3, 3), st.sampled_from([math.nan, -0.0]))
COLUMNS = {
    "i": ("INTEGER", st.integers(-3, 3)),
    "f": ("REAL", _FLOATS),
    "s": ("TEXT", st.text(alphabet="ab", max_size=2)),
    "b": ("BOOLEAN", st.booleans()),
    "x": ("BLOB", st.binary(max_size=2)),
    "u": ("TAG", st.builds(Tag, st.integers(0, 2))),
}
OPERANDS = st.one_of(st.none(), st.integers(-3, 3), _FLOATS,
                     st.text(alphabet="ab", max_size=2), st.booleans(),
                     st.binary(max_size=2),
                     st.builds(Tag, st.integers(0, 2)))
COMPARISONS = ("=", "!=", "<>", "<", "<=", ">", ">=")
AGGREGATES = ("min", "max", "avg", "sum", "count")


@st.composite
def tables(draw):
    """Rows of ``t``: each column dense, or NULL at one drawn row; some
    rows deleted (a tombstone makes the scan gather its live rows)."""
    size = draw(st.integers(1, 10))
    columns = []
    for _, cells in COLUMNS.values():
        column = draw(st.lists(cells, min_size=size, max_size=size))
        for row in draw(st.sets(st.integers(0, size - 1), max_size=1)):
            column[row] = NULL
        columns.append(column)
    dead = draw(st.sets(st.integers(0, size - 1), max_size=2))
    return [(row, *cells) for row, cells in enumerate(zip(*columns))], dead


def _side(draw, parameters):
    """An operand: a parameter, or a column of ``t``."""
    if draw(st.booleans()):
        parameters.append(draw(OPERANDS))
        return "?"
    return draw(st.sampled_from(sorted(COLUMNS)))


@st.composite
def statements(draw):
    """One drawn statement over ``t``: a comparison or ``[NOT]
    BETWEEN`` as a WHERE, or native aggregates over one column."""
    parameters = []
    column = draw(st.sampled_from(sorted(COLUMNS)))
    shape = draw(st.sampled_from(("compare", "between", "fold", "group")))
    if shape == "compare":
        left, right = column, _side(draw, parameters)
        if draw(st.booleans()):
            left, right = right, left
            parameters.reverse()
        where = f"{left} {draw(st.sampled_from(COMPARISONS))} {right}"
        return f"SELECT id, {column} FROM t WHERE {where}", parameters
    if shape == "between":
        low, high = _side(draw, parameters), _side(draw, parameters)
        negated = "NOT " if draw(st.booleans()) else ""
        return (f"SELECT id FROM t WHERE {column} {negated}BETWEEN {low} "
                f"AND {high}", parameters)
    folds = ", ".join(f"{name}({column})" for name in AGGREGATES)
    if shape == "fold":
        return f"SELECT {folds} FROM t", parameters
    return f"SELECT id % 2, {folds} FROM t GROUP BY id % 2", parameters


def _table(rows, dead, layout, memory_budget=None):
    database = Database(layout=layout, memory_budget=memory_budget,
                        page_rows=4)
    database.register_type(_TAG)
    database.execute("CREATE TABLE t (id INTEGER, " + ", ".join(
        f"{name} {sql_type}" for name, (sql_type, _) in COLUMNS.items())
        + ")")
    database.executemany(f"INSERT INTO t VALUES (?{', ?' * len(COLUMNS)})",
                         rows)
    for row in dead:
        database.execute("DELETE FROM t WHERE id = ?", (row,))
    return database


def _outcome(database, sql, parameters):
    """Rows, or the error as ``(type, message)``; as ``repr`` text, so a
    NaN equals itself."""
    try:
        return repr(database.execute(sql, parameters).rows)
    except DatabaseError as exc:
        return repr((type(exc).__name__, str(exc)))


@settings(max_examples=80, deadline=None)
@given(tables(), st.lists(statements(), min_size=1, max_size=6))
def test_a_one_kind_column_answers_as_the_per_cell_path(table, drawn):
    rows, dead = table
    oracle = _table(rows, dead, "row")
    unbudgeted = _table(rows, dead, "column")
    quarter = max(1, unbudgeted.columnar.cache.resident_bytes // 4)
    configs = [unbudgeted, _table(rows, dead, "column", quarter),
               _table(rows, dead, "column", 64)]
    for sql, parameters in drawn:
        expected = _outcome(oracle, sql, parameters)
        for database in configs:
            assert _outcome(database, sql, parameters) == expected, (
                sql, parameters, database.columnar.cache.budget_bytes)


# -- the fast path, pinned --------------------------------------------------

class Reached(Exception):
    """What a patched ``compare`` raises: the per-cell path ran."""


def _refuse(*arguments):
    raise Reached(arguments)


def _reads(layout="column", null_at=None):
    """12 rows, three sealed pages of four and no tail."""
    database = Database(layout=layout, page_rows=4)
    database.execute("CREATE TABLE reads (id INTEGER, k INTEGER, gc REAL)")
    database.executemany("INSERT INTO reads VALUES (?, ?, ?)", [
        (row, NULL if row == null_at else row // 2, row / 16)
        for row in range(12)])
    return database


RANGE = "SELECT id, gc FROM reads WHERE k BETWEEN ? AND ?"
FOLDS = "SELECT min(k), max(k), avg(gc), count(k) FROM reads"


def test_a_dense_column_table_never_reaches_compare(monkeypatch):
    expected = [_reads("row").execute(sql, (1, 3)).rows
                for sql in (RANGE, FOLDS)]
    assert expected[0] == [(row, row / 16) for row in range(2, 8)]
    assert expected[1] == [(0, 5, 11 / 32, 12)]
    monkeypatch.setattr(values, "compare", _refuse)
    database = _reads()
    assert [database.execute(sql, (1, 3)).rows
            for sql in (RANGE, FOLDS)] == expected
    kept = [form for forms in database.columnar.cache._forms.values()
            for form in forms.values()]
    assert kept and {type(form) for form in kept} == {OneKind}
    assert database.execute(
        "SELECT id FROM reads WHERE k < ? AND gc >= ?", (1, 0.0625)).rows \
        == [(1,)]
    # The row layout, a page with a NULL and a parameter of another kind
    # all compare cell by cell.
    for database, parameters in ((_reads("row"), (1, 3)),
                                 (_reads(null_at=5), (1, 3)),
                                 (_reads(), (True, 3))):
        with pytest.raises(Reached):
            database.execute(RANGE, parameters)
    # ... and answer as they did before the patch.
    monkeypatch.undo()
    assert _reads(null_at=5).execute(RANGE, (1, 3)).rows == [
        (row, row / 16) for row in (2, 3, 4, 6, 7)]
    with pytest.raises(DatabaseError, match="cannot compare int with bool"):
        _reads().execute(RANGE, (True, 3))


# -- found by the differential ---------------------------------------------

@pytest.mark.parametrize("budget", [None, 64])
def test_min_and_max_past_a_nan_do_not_depend_on_the_batches(budget):
    # Group 1 is 0.0, 0.0 | NaN, 1.0 over two pages: a page whose first
    # value is NaN picked NaN, which lost to the 0.0 before it, and the
    # 1.0 after it was never seen.  One batch of all rows answered 1.0.
    floats = [0.0, 0.0, 0.0, 0.0, 0.0, math.nan, 0.0, 1.0, 0.0]
    sql = "SELECT id % 2, min(f), max(f) FROM t GROUP BY id % 2"
    answers = set()
    for layout in ("row", "column"):
        database = Database(layout=layout, page_rows=4,
                            memory_budget=budget if layout == "column"
                            else None)
        database.execute("CREATE TABLE t (id INTEGER, f REAL)")
        database.executemany("INSERT INTO t VALUES (?, ?)",
                             list(enumerate(floats)))
        answers.add(repr(database.execute(sql).rows))
    assert answers == {repr([(0, 0.0, 0.0), (1, 0.0, 1.0)])}


def test_a_spilled_group_by_fails_as_the_unbudgeted_one():
    # Under 64 bytes every group spills to a hash partition, and the
    # partitions fold in their own order: group 1 (b'\x00') used to fail
    # first, where the unbudgeted fold fails on group 0's b''.  Each fold
    # now keeps its error, and the first group that failed raises.
    messages = set()
    for budget in (None, 64):
        database = Database(layout="column", page_rows=4,
                            memory_budget=budget)
        database.execute("CREATE TABLE t (id INTEGER, x BLOB)")
        database.executemany("INSERT INTO t VALUES (?, ?)", [
            (0, b""), (1, b"\x00"), (2, b""), (3, b""), (4, b"")])
        with pytest.raises(DatabaseError) as caught:
            database.execute("SELECT id % 2, avg(x) FROM t GROUP BY id % 2")
        messages.add(str(caught.value))
    assert messages == {"cannot apply aggregate 'avg' to b''"}


# -- group keys -------------------------------------------------------------
#
# A GROUP BY or DISTINCT keys a number, a text or a bytes cell by itself
# and everything else by its ``sort_key``; every NaN is one group.  The
# draws mix what must stay apart (``True`` and ``1``, ``''`` and ``b''``)
# with what must meet (``1`` and ``1.0``, ``0.0`` and ``-0.0``, one NaN
# object twice, two NaNs), through stored columns and through
# ``cell(id)``, a function returning any drawn value.  The oracle groups
# by the tuple of ``sort_key`` s, every NaN read as ``math.nan``.

#: A fresh NaN, one per draw; ``math.nan`` is the shared one.  A column
#: page decodes every stored NaN afresh, a row heap keeps what it got.
_NAN = st.builds(float, st.just("nan"))
_KEYED = {
    "i": ("INTEGER", st.integers(-1, 1)),
    "f": ("REAL", st.one_of(st.sampled_from([1.0, 0.0, -0.0, math.nan]),
                            _NAN)),
    "s": ("TEXT", st.text(alphabet="ab", max_size=1)),
    "b": ("BOOLEAN", st.booleans()),
    "x": ("BLOB", st.binary(max_size=1)),
    "u": ("TAG", st.builds(Tag, st.integers(0, 1))),
}
CELLS = st.one_of(*(cells for _, cells in _KEYED.values()),
                  st.sampled_from([math.nan, NULL]))
KEYS = (*_KEYED, "cell(id)")


@st.composite
def keyed_tables(draw):
    """``(rows, dead, cells)``: rows of ``k``, any cell NULL, rows
    deleted, and what ``cell(id)`` returns for each id."""
    size = draw(st.integers(1, 12))
    columns = [draw(st.lists(st.one_of(cells, st.just(NULL)),
                             min_size=size, max_size=size))
               for _, cells in _KEYED.values()]
    dead = draw(st.sets(st.integers(0, size - 1), max_size=2))
    cells = draw(st.lists(CELLS, min_size=size, max_size=size))
    return [(row, *values) for row, values in enumerate(zip(*columns))], \
        dead, cells


def _keyed_table(table, layout, memory_budget=None):
    rows, dead, cells = table
    database = Database(layout=layout, memory_budget=memory_budget,
                        page_rows=4)
    database.register_type(_TAG)
    database.register_function("cell", cells.__getitem__)
    database.execute("CREATE TABLE k (id INTEGER, " + ", ".join(
        f"{name} {sql_type}" for name, (sql_type, _) in _KEYED.items())
        + ")")
    database.executemany(f"INSERT INTO k VALUES (?{', ?' * len(_KEYED)})",
                         rows)
    for row in dead:
        database.execute("DELETE FROM k WHERE id = ?", (row,))
    return database


def _grouped(table, keys, distinct):
    """What the statement answers, grouped by the tuple of ``sort_key``
    s of each row's key cells, groups in first-seen order."""
    rows, dead, cells = table
    groups = {}
    for row in rows:
        if row[0] in dead:
            continue
        named = dict(zip(_KEYED, row[1:]), **{"cell(id)": cells[row[0]]})
        cells_of = tuple(named[key] for key in keys)
        group = groups.setdefault(tuple(
            values.sort_key(math.nan if cell != cell else cell)
            for cell in cells_of), [cells_of, 0, row[0]])
        group[1] += 1
    if distinct:
        return repr([cells_of for cells_of, _, _ in groups.values()])
    return repr([(*cells_of, size, first)
                 for cells_of, size, first in groups.values()])


@settings(max_examples=60, deadline=None)
@given(keyed_tables(), st.lists(st.tuples(
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=2, unique=True),
    st.booleans()), min_size=1, max_size=4))
def test_group_keys_part_and_meet_as_their_sort_keys(table, drawn):
    unbudgeted = _keyed_table(table, "column")
    quarter = max(1, unbudgeted.columnar.cache.resident_bytes // 4)
    configs = [_keyed_table(table, "row"), unbudgeted,
               _keyed_table(table, "column", quarter),
               _keyed_table(table, "column", 64)]
    for keys, distinct in drawn:
        listed = ", ".join(keys)
        sql = (f"SELECT DISTINCT {listed} FROM k" if distinct else
               f"SELECT {listed}, count(*), min(id) FROM k "
               f"GROUP BY {listed}")
        expected = _grouped(table, keys, distinct)
        for database in configs:
            assert _outcome(database, sql, ()) == expected, (
                sql, database.columnar.cache.budget_bytes)


def test_bucket_keys_follow_the_rule_on_its_edge_cells():
    from repro.db.sql.plan import _bucket_keys

    nan = math.nan
    dense = [3, 1.5, "a", b"a", -0.0]
    assert _bucket_keys([dense]) is dense  # its own keys, no pass
    edge = [NULL, True, 1, 1.0, False, 0, -0.0, nan, "", b"", Tag(1)]
    assert list(_bucket_keys([edge])) == [
        (0, ""), (1, True), 1, 1.0, (1, False), 0, -0.0, nan, "", b"",
        (5, repr(Tag(1)))]
    keys = list(_bucket_keys([edge]))
    assert keys[1] != keys[2] and keys[4] != keys[5]  # True != 1
    assert keys[2] == keys[3] and keys[5] == keys[6]  # 1 == 1.0, 0 == -0.0
    assert keys[8] != keys[9] and keys[7] is nan      # '' != b''
    # Every NaN keys as the one ``math.nan``, a float column included.
    assert list(_bucket_keys([[float("nan"), 2.5, nan]])) == [nan, 2.5, nan]
    assert list(_bucket_keys([[float("nan")], ["a"]])) == [(nan, "a")]
    # Two columns key by tuples; a NULL in one batch leaves the cells of
    # the others keyed as a dense batch keys them.
    assert list(_bucket_keys([[1, NULL], ["a", True]])) == [
        (1, "a"), ((0, ""), (1, True))]
    assert list(_bucket_keys([[2, NULL]]))[0] == _bucket_keys([[2]])[0] == 2


@pytest.mark.parametrize("budget", ("none", "quarter", "64 B"))
def test_every_nan_is_one_group_in_both_layouts(budget):
    """Failing-first: shared and fresh NaNs made 4 groups over a row
    heap (which keeps the shared object) and 6 over column pages (which
    decode each afresh), and a spilled group went to a partition by the
    NaN's identity hash."""
    floats = [math.nan, 1.0, math.nan, float("nan"), 0.0, -0.0, math.nan]

    def loaded(layout, memory_budget=None):
        database = Database(layout=layout, memory_budget=memory_budget,
                            page_rows=2)
        database.execute("CREATE TABLE n (id INTEGER, f REAL)")
        database.executemany("INSERT INTO n VALUES (?, ?)",
                             list(enumerate(floats)))
        return database
    resident = loaded("column").columnar.cache.resident_bytes
    limit = {"none": None, "quarter": max(1, resident // 4),
             "64 B": 64}[budget]
    for database in (loaded("row"), loaded("column", limit)):
        assert repr(database.execute(
            "SELECT f, count(*), min(id) FROM n GROUP BY f").rows) == repr(
                [(math.nan, 4, 0), (1.0, 1, 1), (0.0, 2, 4)])
        assert repr(database.execute("SELECT DISTINCT f FROM n").rows) == (
            repr([(math.nan,), (1.0,), (0.0,)]))


def test_a_group_by_runs_no_python_call_per_row():
    # Bucketing 2,048 dense rows into 8 groups is C all the way: under
    # the profiler the whole statement makes fewer C calls than rows,
    # which one Python-level call per row would already exceed.
    import sys

    database = Database(layout="column", page_rows=256)
    database.execute("CREATE TABLE g (id INTEGER, k INTEGER, v REAL)")
    database.executemany("INSERT INTO g VALUES (?, ?, ?)",
                         [(row, row % 8, row / 8) for row in range(2048)])
    sql = "SELECT k, count(*), avg(v) FROM g GROUP BY k"
    expected = [(k, 256, sum(range(k, 2048, 8)) / 8 / 256)
                for k in range(8)]
    assert database.execute(sql).rows == expected
    calls = []
    sys.setprofile(lambda frame, event, argument: event == "c_call"
                   and calls.append(argument))
    try:
        rows = database.execute(sql).rows
    finally:
        sys.setprofile(None)
    assert rows == expected
    assert 0 < len(calls) < 2048
