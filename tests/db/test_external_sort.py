"""The external sort and the group spill, held to an interpreter.

One derandomised differential: a table of every storable kind of value
(INTEGER, REAL, TEXT, BOOLEAN, BLOB, DNA, NULLs everywhere, few distinct
values so ties abound) under ORDER BY of one to three items, columns and
expressions, ASC and DESC mixed.  The same statement must answer alike —
rows, or ``(type, message)`` — unbudgeted, in the row layout, under three
budgets that cut the input into many runs, under one that makes every
run two blocks (as many as the charge rule says), and as
``tests/db/reference_evaluator.py`` orders the rows one at a time: per
item ``sort_key``, DESC inverted, ties in input order.  The same again
for GROUP BY past the group cap, where the partitions carry a SEQ column.
Then the merge on its own, over sources that count what is pulled.
"""

import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter import install_genomics
from repro.db import Database
from repro.db.columnar.spill import BlockRun, footprint
from repro.db.sql.expressions import Frame, RowContext
from repro.db.sql.parser import parse
from repro.db.sql.plan import merged
from repro.db.values import NULL, sort_key
from repro.obs.metrics import disable_metrics, enable_metrics

from tests.db.reference_evaluator import ReferenceEvaluator

COLUMNS = ("id", "k", "r", "s", "f", "b", "seq")
PAGE_ROWS = 4

#: What an ORDER BY item (or a GROUP BY key) may be.  ``picky`` raises on
#: 5, so some statements fail — every configuration must fail alike.
KEYS = ("k", "r", "s", "f", "b", "seq", "k % 7", "gc_content(seq)",
        "length(seq)", "r * 2", "picky(k)", "id")

_cells = st.tuples(
    st.one_of(st.none(), st.integers(0, 9)),
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.5, 2.5, -1.5, 1e300])),
    st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "é"])),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.sampled_from([b"", b"\x00", b"\x00\xff", b"z"])),
    st.one_of(st.none(), st.sampled_from(
        ["", "A", "ACGT", "GGCC", "ACGTN", "TTTTTTT"])),
)
_tables = st.lists(_cells, min_size=26, max_size=44)
_items = st.lists(st.tuples(st.sampled_from(KEYS), st.booleans()),
                  min_size=1, max_size=3)


def _picky(value):
    if value == 5:
        raise ValueError("five is right out")
    return value


def _database(cells, page_rows=PAGE_ROWS, **kwargs):
    db = Database(page_rows=page_rows, **kwargs)
    install_genomics(db)
    db.register_function("picky", _picky)
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER, r REAL, s TEXT, "
               "f BOOLEAN, b BLOB, seq DNA)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, dna(?))",
                   [(index, *cell) for index, cell in enumerate(cells)])
    return db


def _encoded_bytes(cells):
    registry = enable_metrics()
    try:
        _database(cells, layout="column").columnar.close()
        return int(registry.snapshot()["columnar_resident_peak"])
    finally:
        disable_metrics()


def _configurations(cells):
    """(name, database) — the oracle's layout first."""
    yield "row", _database(cells, layout="row")
    yield "column", _database(cells, layout="column")
    for budget in (64, 512, max(1, _encoded_bytes(cells) // 4)):
        yield f"column under {budget} B", _database(
            cells, layout="column", memory_budget=budget)
    yield "row under 512 B", _database(cells, layout="row",
                                       memory_budget=512)


def _outcome(compute):
    """Rows (and the type of every cell: ``1 == 1.0 == True``) or error."""
    try:
        rows = compute()
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("rows", rows, [tuple(map(type, row)) for row in rows])


def _keys_by_reference(db, texts):
    """Per stored row, the value of each expression as the interpreter
    computes it — rows in order, items left to right, so the first
    failure met is the one the engine must report."""
    reference = ReferenceEvaluator(db)
    expressions = [item.expression for item in parse(
        "SELECT 1 FROM t ORDER BY " + ", ".join(texts)).order_by]
    frame = Frame.for_table("t", COLUMNS)
    rows = db.execute("SELECT * FROM t").rows
    return rows, [[reference.evaluate(expression, RowContext(frame, row))
                   for expression in expressions] for row in rows]


def _sorted_by_reference(db, items):
    rows, keys = _keys_by_reference(db, [text for text, _ in items])

    def compare(left, right):
        for (_, ascending), a, b in zip(items, keys[left], keys[right]):
            a, b = sort_key(a), sort_key(b)
            if a != b:
                return -1 if (a < b) is ascending else 1
        return left - right  # ties: input order

    return [rows[at] for at in sorted(range(len(rows)),
                                      key=cmp_to_key(compare))]


def _batch_footprints(db, texts, rows):
    """What a sort of ``SELECT *`` charges for each input batch of *rows*
    rows: the seven columns, and a key column per item that is not one
    (its values as the interpreter computes them)."""
    stored, keys = _keys_by_reference(db, texts)
    computed = [at for at, text in enumerate(texts) if text not in COLUMNS]
    cells = [(*row, *(key[at] for at in computed))
             for row, key in zip(stored, keys)]
    return [footprint(list(zip(*cells[at:at + rows])))
            for at in range(0, len(cells), rows)]


def _runs_cut(footprints, room):
    """The batches in each run the charge rule flushes: a chunk flushes
    before the batch it has no *room* for (the budget less the largest
    page); the last chunk stays in memory."""
    runs, held = [], []
    for need in footprints:
        if held and sum(held) + need > room:
            runs.append(len(held))
            held = []
        held.append(need)
    return runs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_tables, _items)
def test_external_sort_differential(cells, items):
    sql = "SELECT * FROM t ORDER BY " + ", ".join(
        f"{text} {'ASC' if ascending else 'DESC'}"
        for text, ascending in items)
    outcomes = {}
    for name, db in _configurations(cells):
        if not outcomes:
            outcomes["reference"] = _outcome(
                lambda: _sorted_by_reference(db, items))
            if outcomes["reference"][0] == "rows":
                footprints = _batch_footprints(
                    db, [text for text, _ in items], 2)
        outcomes[name] = _outcome(lambda: db.execute(sql).rows)
    if outcomes["reference"][0] == "rows":
        # the shape the battery is about: >= 3 runs of 2 blocks each (the
        # last chunk stays in memory).  Row groups of 2 rows, and room for
        # two of the largest batches: a batch charges 2 x 56..67 B and
        # 2 x 8 B a computed key, so three never fit.
        largest = _database(cells, 2, layout="column").columnar.cache._largest
        budget = largest + 2 * max(footprints)
        db = _database(cells, 2, layout="column", memory_budget=budget)
        registry = enable_metrics()
        try:
            outcomes["column in runs of two blocks"] = _outcome(
                lambda: db.execute(sql).rows)
            runs = registry.snapshot().get("executor_spill_runs", 0)
        finally:
            disable_metrics()
        cut = _runs_cut(footprints, budget - largest)
        assert runs == len(cut) >= 3 and set(cut) == {2}
        assert f"spilled {runs:.0f} runs" in db.explain(sql, analyze=True)
    for name, outcome in outcomes.items():
        assert outcome == outcomes["reference"], (name, sql)


def _grouped_by_reference(db, texts):
    arguments = ["id", "k", "gc_content(seq)", "seq"]
    rows, values = _keys_by_reference(db, texts + arguments)
    groups: dict = {}
    for row_values in values:
        keys, (ident, k, gc, seq) = (row_values[:len(texts)],
                                     row_values[len(texts):])
        state = groups.setdefault(tuple(map(sort_key, keys)), {
            "keys": keys, "count": 0, "ids": [], "ks": [], "gcs": [],
            "seqs": 0})
        state["count"] += 1
        state["ids"].append(ident)
        state["ks"] += [k] if k is not NULL else []
        state["gcs"] += [gc] if gc is not NULL else []
        state["seqs"] += seq is not NULL
    return [(*state["keys"], state["count"], min(state["ids"]),
             sum(state["ks"]) if state["ks"] else NULL,
             max(state["gcs"]) if state["gcs"] else NULL, state["seqs"])
            for state in groups.values()]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tables, st.lists(st.sampled_from(KEYS), min_size=1, max_size=2,
                         unique=True))
def test_group_spill_differential(cells, texts):
    sql = (f"SELECT {', '.join(texts)}, count(*), min(id), sum(k), "
           f"max(gc_content(seq)), count(seq) FROM t "
           f"GROUP BY {', '.join(texts)}")
    outcomes = {}
    for name, db in _configurations(cells):
        if not outcomes:
            outcomes["reference"] = _outcome(
                lambda: _grouped_by_reference(db, list(texts)))
        outcomes[name] = _outcome(lambda: db.execute(sql).rows)
    for name, outcome in outcomes.items():
        assert outcome == outcomes["reference"], (name, sql)


def test_group_partitions_carry_the_seq_column_and_are_reported():
    rng = random.Random("group-partitions")
    cells = [(rng.randrange(10), 0.5, rng.choice("abcdefghijklmnop"), None,
              None, rng.choice(["ACGT", "GGCC", "AT", None]))
             for _ in range(120)]
    sql = ("SELECT s, count(*), max(gc_content(seq)), count(seq) FROM t "
           "GROUP BY s")
    budgeted = _database(cells, layout="column", memory_budget=128)
    # 16 groups, each charged its key and three fold states: more than
    # the whole budget holds.
    assert footprint([list("abcdefghijklmnop")]) + 16 * 3 * 8 > 128
    registry = enable_metrics()
    try:
        got = budgeted.execute(sql).rows
        snapshot = registry.snapshot()
    finally:
        disable_metrics()
    assert got == _database(cells, layout="row").execute(sql).rows
    assert len(got) == 16
    runs, spilled = (int(snapshot["executor_spill_runs"]),
                     int(snapshot["executor_spill_bytes"]))
    assert 0 < runs <= 16 and spilled > 0
    plan = budgeted.explain(sql, analyze=True)
    assert f"spilled {runs} runs, {spilled} bytes)" in plan.splitlines()[1]
    assert "spilled" not in _database(cells, layout="column").explain(
        sql, analyze=True)


def test_a_failing_key_raises_before_any_row_is_output():
    cells = [(index % 7, 0.5, "a", None, None, "ACGT")
             for index in range(40)]
    for kwargs in ({"layout": "row"}, {"layout": "column"},
                   {"layout": "column", "memory_budget": 64}):
        db = _database(cells, **kwargs)
        plan = db._prepare("SELECT id FROM t ORDER BY picky(k), id").plan
        with pytest.raises(Exception) as caught:
            next(plan.execute(()))
        assert "function 'picky' failed: five is right out" in str(
            caught.value)


def test_order_by_a_kernel_call_reads_the_page_not_the_column():
    cells = [(index, 0.5, "a", None, None, "ACGT" * (1 + index % 3))
             for index in range(20)]
    db = _database(cells, layout="column", memory_budget=512)
    plan = db.explain("SELECT id FROM t ORDER BY gc_content(seq) DESC, id")
    assert "columns id; kernels gc_content(seq)" in plan


# -- the merge, on its own --------------------------------------------------

BLOCK = 8


def _ordered(columns):
    order = list(range(len(columns[0])))
    order.sort(key=columns[0].__getitem__)
    return order


def _counting_sources(runs, pulled):
    def source(blocks):
        for block in blocks:
            pulled.append(len(block[0]))
            yield block
    return [source(blocks) for blocks in runs]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=40),
                min_size=1, max_size=6))
def test_merge_is_the_stable_sort_and_holds_a_block_per_source(chunks):
    runs, start = [], 0
    for chunk in chunks:  # (value, input ordinal), each run sorted
        rows = sorted(zip(chunk, range(start, start + len(chunk))))
        start += len(chunk)
        runs.append([[list(column) for column in zip(*rows[at:at + BLOCK])]
                     for at in range(0, len(rows), BLOCK)])
    pulled, emitted, got = [], 0, []
    for block in merged(_counting_sources(runs, pulled), _ordered):
        emitted += len(block[0])
        got.extend(zip(*block))
        assert sum(pulled) - emitted <= len(runs) * BLOCK
    assert got == sorted(row for run in runs for block in run
                         for row in zip(*block))


def test_limit_one_under_a_budget_reads_one_block_per_run(monkeypatch):
    reads = []
    real = BlockRun.blocks

    def blocks(run):
        for block in real(run):
            reads.append(run.name)
            yield block

    monkeypatch.setattr(BlockRun, "blocks", blocks)
    rng = random.Random("limit-one")
    cells = [(rng.randrange(10), 0.5, "a", None, None, "ACGT")
             for _ in range(100)]
    # Room for two batches of PAGE_ROWS rows of (id, k), 8 B a cell,
    # beside the largest page: every run is two blocks.
    largest = _database(cells, layout="column").columnar.cache._largest
    db = _database(cells, layout="column",
                   memory_budget=largest + 2 * PAGE_ROWS * 2 * 8)
    sql = "SELECT id FROM t ORDER BY k DESC, id"
    everything = db.execute(sql).rows
    assert len(reads) == 2 * (100 // (2 * PAGE_ROWS))  # every block
    reads.clear()
    # DISTINCT keeps the limit from bounding the sort: every run is
    # written, and the merge reads one block of each.
    distinct = sql.replace("SELECT", "SELECT DISTINCT")
    assert db.execute(distinct + " LIMIT 1").rows == everything[:1]
    assert len(reads) == len(set(reads)) == 100 // (2 * PAGE_ROWS)
    reads.clear()
    # A bounded sort prunes each full chunk to one row: no run at all.
    assert db.execute(sql + " LIMIT 1").rows == everything[:1]
    assert reads == []


def test_a_generous_budget_spills_nothing():
    # Each operator used to be capped at min(1024, budget // 64) rows
    # whatever the budget: under 1 GiB this sort wrote 4 runs, the
    # GROUP BY 16 partitions and the join's build side 1 run.  An
    # operator spills only when the page cache refuses its charge.
    rng = random.Random("generous-budget")
    rows = [(index, rng.randrange(5000), rng.choice(("a", "bb", None)))
            for index in range(5000)]
    databases = []
    for kwargs in ({}, {"memory_budget": 1 << 30}):
        db = Database(layout="column", **kwargs)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER, name TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        databases.append(db)
    unbudgeted, generous = databases
    for sql in ("SELECT id, v FROM t ORDER BY v DESC, id",
                "SELECT id, count(*), max(v) FROM t GROUP BY id",
                "SELECT a.id, b.name FROM t AS a JOIN t AS b ON a.id = b.v"):
        registry = enable_metrics()
        try:
            got = generous.execute(sql).rows
            runs = registry.snapshot().get("executor_spill_runs", 0)
        finally:
            disable_metrics()
        assert runs == 0, sql
        assert got == unbudgeted.execute(sql).rows, sql
    assert generous.columnar.cache._charged == 0  # every charge released
