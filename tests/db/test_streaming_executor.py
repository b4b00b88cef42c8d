"""Bounded-memory streaming operators: differential + spill regression.

Every pipeline breaker (ORDER BY, GROUP BY, both join build sides) must
produce bit-identical results whether it runs fully in memory or spills
under a tiny ``memory_budget`` — and the spill must actually happen
(counters prove it).  The satellite regression here pins the old
NestedLoopJoin failure mode: a right side larger than the budget used
to be materialized with ``list(...)``; now it streams through a
spillable run and completes.
"""

import random
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.columnar import pages, spill
from repro.db.values import NULL
from repro.errors import StorageError
from repro.obs.metrics import disable_metrics, enable_metrics

TINY_BUDGET = 512  # bytes: a handful of rows before operators spill


def _load(db, rows):
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER, name TEXT)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?)", row)


def _rows(seed, count):
    rng = random.Random(seed)
    return [(index, rng.randrange(40),
             rng.choice(("a", "bb", "ccc", None)))
            for index in range(count)]


def _spilled(run):
    registry = enable_metrics()
    try:
        result = run()
        snapshot = registry.snapshot()
        assert snapshot.get("executor_spill_runs", 0) > 0
        assert snapshot.get("executor_spill_rows", 0) > 0
        return result
    finally:
        disable_metrics()


# -- external merge sort ----------------------------------------------------


def test_external_sort_matches_python_sorted():
    rows = _rows("external-sort", 500)
    db = Database(layout="column", memory_budget=TINY_BUDGET, page_rows=16)
    _load(db, rows)
    got = _spilled(lambda: db.execute(
        "SELECT id, v FROM t ORDER BY v DESC, id").rows)
    assert got == sorted(((r[0], r[1]) for r in rows),
                         key=lambda pair: (-pair[1], pair[0]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9),
                          st.one_of(st.none(), st.integers(-9, 9))),
                max_size=60),
       st.booleans())
def test_external_sort_differential(pairs, descending):
    rows = [(index, v if v is not None else None, "x")
            for index, (_, v) in enumerate(pairs)]
    order = "DESC" if descending else "ASC"
    sql = f"SELECT id, v FROM t ORDER BY v {order}, id"
    results = []
    for kwargs in ({"layout": "row"},
                   {"layout": "column"},
                   {"layout": "column", "memory_budget": 64,
                    "page_rows": 4}):
        db = Database(**kwargs)
        _load(db, rows)
        results.append(db.execute(sql).rows)
    assert results[0] == results[1] == results[2]
    # Ties on v keep input order: the external merge must be stable.
    values = [row[1] for row in results[0]]
    for value in set(values):
        ids = [row[0] for row in results[0] if row[1] == value]
        assert ids == sorted(ids)


# -- joins ------------------------------------------------------------------


def test_nested_loop_join_right_side_larger_than_budget():
    # Satellite regression: the non-equi right side no longer
    # materializes with list(...); it spills and still completes.
    big = _rows("nlj-right", 400)
    db = Database(layout="column", memory_budget=TINY_BUDGET, page_rows=16)
    _load(db, big)
    db.execute("CREATE TABLE probe (x INTEGER)")
    for x in (5, 20, 35):
        db.execute("INSERT INTO probe VALUES (?)", (x,))
    sql = ("SELECT probe.x, count(*) FROM probe JOIN t "
           "ON t.v < probe.x GROUP BY probe.x")
    got = _spilled(lambda: db.execute(sql).rows)

    oracle = Database(layout="row")
    _load(oracle, big)
    oracle.execute("CREATE TABLE probe (x INTEGER)")
    for x in (5, 20, 35):
        oracle.execute("INSERT INTO probe VALUES (?)", (x,))
    assert got == oracle.execute(sql).rows
    for x, matches in got:
        assert matches == sum(1 for row in big if row[1] < x)


def test_hash_join_build_side_larger_than_budget():
    rows = _rows("hash-build", 400)
    sql = ("SELECT a.id, b.name FROM t AS a JOIN t AS b "
           "ON a.v = b.v WHERE a.id < 5")
    spilling = Database(layout="column", memory_budget=TINY_BUDGET,
                        page_rows=16)
    _load(spilling, rows)
    got = _spilled(lambda: spilling.execute(sql).rows)
    oracle = Database(layout="row")
    _load(oracle, rows)
    assert got == oracle.execute(sql).rows
    assert len(got) > 0


# -- aggregation ------------------------------------------------------------


def test_group_by_spills_past_budget_and_keeps_first_seen_order():
    rng = random.Random("groupby-spill")
    rows = [(index, rng.randrange(10_000), None)
            for index in range(600)]  # ~hundreds of distinct groups
    sql = "SELECT v, count(*), min(id), avg(id) FROM t GROUP BY v"
    spilling = Database(layout="column", memory_budget=TINY_BUDGET,
                        page_rows=16)
    _load(spilling, rows)
    got = _spilled(lambda: spilling.execute(sql).rows)
    oracle = Database(layout="row")
    _load(oracle, rows)
    expected = oracle.execute(sql).rows
    # Exact list equality: groups emerge in first-seen order even when
    # most of them detoured through disk partitions.
    assert got == expected
    assert len(got) > TINY_BUDGET // 64  # more groups than the run cap


def test_equal_group_keys_that_print_apart_spill_to_one_partition():
    # Overflow rows were routed by crc32(repr(key)): 0.0 and -0.0 (one
    # group: they are equal) went to two partitions and came back as two
    # groups.  Found by test_external_sort.py's GROUP BY differential.
    sql = "SELECT r, count(*) FROM m GROUP BY r"
    results = []
    for kwargs in ({"layout": "row"},
                   {"layout": "column", "memory_budget": 64,
                    "page_rows": 4}):
        db = Database(**kwargs)
        db.execute("CREATE TABLE m (r REAL)")
        for r in (7.5, -0.0, 0.0, 2.0, 0.0, -0.0):
            db.execute("INSERT INTO m VALUES (?)", (r,))
        results.append(db.execute(sql).rows)
    assert results[0] == results[1] == [(7.5, 1), (-0.0, 4), (2.0, 1)]


def test_distinct_and_global_aggregates_with_budget():
    rows = _rows("distinct-spill", 300)
    for sql in ("SELECT DISTINCT v FROM t",
                "SELECT count(*), sum(v), min(name) FROM t",
                "SELECT count(*) FROM t WHERE v IS NULL"):
        results = []
        for kwargs in ({"layout": "row"},
                       {"layout": "column", "memory_budget": TINY_BUDGET,
                        "page_rows": 16}):
            db = Database(**kwargs)
            _load(db, rows)
            results.append(db.execute(sql).rows)
        assert results[0] == results[1], sql


def test_spilled_rows_carry_nulls_and_text_intact():
    rows = [(index, None if index % 7 == 0 else index % 5,
             None if index % 3 == 0 else f"name-{index % 11}")
            for index in range(200)]
    sql = "SELECT v, name FROM t ORDER BY v, name, id"
    budgeted = Database(layout="column", memory_budget=128, page_rows=8)
    _load(budgeted, rows)
    got = _spilled(lambda: budgeted.execute(sql).rows)
    oracle = Database(layout="row")
    _load(oracle, rows)
    assert got == oracle.execute(sql).rows
    assert any(value is NULL for row in got for value in row)


# -- a damaged run ----------------------------------------------------------
#
# A spilled run used to be JSON lines with no checksum: a flipped byte or
# a cut inside a line escaped as a bare ``json.JSONDecodeError``, and a
# run cut at a line boundary answered — a short, wrong ORDER BY.  A run
# is column blocks in the page codec now, and every way of damaging one
# is a ``StorageError`` naming the run and the block.


class _DamagedOnRewind:
    """A run's temporary file that is damaged once, when the operator
    rewinds it to read back what it wrote."""

    def __init__(self, real, damage):
        self._real, self._damage = real, damage

    def seek(self, offset, *whence):
        if offset == 0 and self._damage is not None:
            self._real.flush()
            damage, self._damage = self._damage, None
            damage(self._real)
        return self._real.seek(offset, *whence)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _frames(data):
    """Where each length-prefixed page of a run starts, and the end."""
    starts, at = [], 0
    while at < len(data):
        starts.append(at)
        at += 4 + int.from_bytes(data[at:at + 4], "little")
    return starts + [at]


def _two_block_budget():
    """Room for two batches of the damaged-run sort beside the largest
    page: (id, v, name) of 4 rows charges 96 B plus the names (0..3 B
    each), 96..108 B, so every run is two blocks."""
    db = Database(layout="column", page_rows=4)
    _load(db, _rows("damaged-run", 64))
    return db.columnar.cache._largest + 2 * 108


def _sort_with_first_run(monkeypatch, damage, budget=TINY_BUDGET):
    """The outcome of a spilling ORDER BY whose first run is damaged
    between write and read-back: ``(rows, None)`` or ``(None, error)``."""
    pending = [damage]

    def temporary_file(**kwargs):
        real = tempfile.TemporaryFile(**kwargs)
        return _DamagedOnRewind(real, pending.pop() if pending else None)

    monkeypatch.setattr(spill, "tempfile",
                        SimpleNamespace(TemporaryFile=temporary_file))
    db = Database(layout="column", memory_budget=budget, page_rows=4)
    _load(db, _rows("damaged-run", 64))
    try:
        return db.execute("SELECT id, v, name FROM t ORDER BY v, id").rows, None
    except Exception as exc:
        return None, exc


def _bytes_of(file):
    file.seek(0)
    return file.read()


def test_an_undamaged_run_answers(monkeypatch):
    rows, error = _sort_with_first_run(monkeypatch, lambda file: None)
    assert error is None
    assert rows == sorted(((r[0], r[1], r[2]) for r in _rows("damaged-run", 64)),
                          key=lambda row: (row[1], row[0]))


def test_overwritten_bytes_in_a_run_are_bit_rot(monkeypatch):
    def overwrite(file):
        file.seek(4 + 12)   # past the first page's length and header
        file.write(b"\xff\x00\xff")

    rows, error = _sort_with_first_run(monkeypatch, overwrite)
    assert rows is None and isinstance(error, StorageError)
    assert error.kind == "bit_rot"
    assert "spill run" in str(error) and "block 0" in str(error)


def test_a_run_cut_inside_a_block_is_malformed(monkeypatch):
    rows, error = _sort_with_first_run(
        monkeypatch, lambda file: file.truncate(len(_bytes_of(file)) - 7),
        _two_block_budget())
    assert rows is None and isinstance(error, StorageError)
    assert error.kind == "malformed"
    assert "spill run" in str(error) and "block 1" in str(error)


def test_a_run_cut_at_a_block_boundary_does_not_answer_short(monkeypatch):
    def cut(file):
        frames = _frames(_bytes_of(file))
        assert len(frames) - 1 == 2 * 3      # two blocks of three columns
        file.truncate(frames[3])             # exactly the first block

    rows, error = _sort_with_first_run(monkeypatch, cut, _two_block_budget())
    assert rows is None and isinstance(error, StorageError)
    assert error.kind == "malformed"
    assert "spill run" in str(error) and "block 1" in str(error)


def test_a_run_that_reads_back_another_row_count_raises():
    # Every page intact under its CRC, the last block one row short.
    db = Database(layout="column", memory_budget=TINY_BUDGET, page_rows=4)
    codec = db.columnar.codec
    run = db.columnar.spill.disk_run()
    run.extend([list(range(8)), ["a", None] * 4])
    data = _bytes_of(run._file)
    frames = _frames(data)
    rebuilt = data[:frames[2]]
    for start, end in zip(frames[2:], frames[3:]):
        page = pages.encode_page(
            pages.decode_page(data[start + 4:end], codec)[:-1], None, codec)
        rebuilt += len(page).to_bytes(4, "little") + page
    run._file.seek(0)
    run._file.truncate()
    run._file.write(rebuilt)
    with pytest.raises(StorageError) as caught:
        list(run.blocks())
    assert caught.value.kind == "malformed"
    assert "read back 7 rows of the 8 appended" in str(caught.value)
    run.close()


def test_blocks_are_counted_once_each():
    # executor_spill_* keep their names and are bumped per block.
    db = Database(layout="column", memory_budget=TINY_BUDGET, page_rows=4)
    run = db.columnar.spill.disk_run()
    registry = enable_metrics()
    try:
        run.extend([list(range(6))])
        run.extend([list(range(5))])
        blocks = list(run.blocks())
        snapshot = registry.snapshot()
    finally:
        disable_metrics()
    assert [block[0] for block in blocks] == [
        [0, 1, 2, 3], [4, 5, 0, 1], [2, 3, 4]]
    assert snapshot["executor_spill_runs"] == 1
    assert snapshot["executor_spill_rows"] == 11 == len(run)
    assert snapshot["executor_spill_bytes"] == run.bytes == len(
        _bytes_of(run._file))
    run.close()
