"""Differential oracle: columnar execution ≡ row execution, bit for bit.

Every query in the battery runs across layout × optimizer × budget
configurations; the row-list layout with the optimizer off is the
oracle.  This is what licenses the vectorized kernels and zone-map
skipping: NULLs, IUPAC ambiguity codes, foreign alphabets, error
messages — all must come out exactly as the row-at-a-time path
produces them.
"""

import random

import pytest

from repro.adapter.adapter import install_genomics
from repro.db import Database
from repro.errors import DatabaseError

SEQS = [
    "ACGTACGTAC", "GGGGCCCC", "AT", "ACGTNNNACGT",  # N: ambiguity code
    "RYSWKM",                                       # all-ambiguous
    "ACACACACACACACAC", "TTTTTTT", "GCGCGCGC",
]


def _make(layout, optimize=True, memory_budget=None, page_rows=4):
    db = Database(optimize=optimize, layout=layout,
                  memory_budget=memory_budget, page_rows=page_rows)
    install_genomics(db)
    db.execute("CREATE TABLE reads (id INTEGER, sample TEXT, seq DNA)")
    rng = random.Random("columnar-differential")
    for index in range(40):
        if index % 9 == 8:
            db.execute("INSERT INTO reads VALUES (?, ?, NULL)",
                       (index, f"s{index % 3}"))
        else:
            db.execute("INSERT INTO reads VALUES (?, ?, dna(?))",
                       (index, f"s{index % 3}", rng.choice(SEQS)))
    db.execute("CREATE TABLE samples (name TEXT, site TEXT)")
    for name, site in (("s0", "lab"), ("s1", "field"), ("s2", "lab")):
        db.execute("INSERT INTO samples VALUES (?, ?)", (name, site))
    return db


CONFIGS = (
    {"layout": "row", "optimize": False},          # the oracle
    {"layout": "row"},
    {"layout": "column"},
    {"layout": "column", "memory_budget": 2048},
    {"layout": "column", "optimize": False, "memory_budget": 2048},
)

BATTERY = (
    "SELECT * FROM reads",
    "SELECT id, gc_content(seq) FROM reads",
    "SELECT id FROM reads WHERE contains(seq, 'ACGT')",
    "SELECT id FROM reads WHERE seq IS NOT NULL "
    "AND contains(seq, 'ACGT')",
    "SELECT id FROM reads WHERE seq IS NOT NULL "
    "AND contains(seq, 'ANT')",                          # ambiguous motif
    "SELECT id FROM reads WHERE seq IS NOT NULL "
    "AND contains(seq, 'acgt')",
    "SELECT id, seq_text(reverse_complement(seq)) FROM reads "
    "WHERE seq IS NOT NULL",
    "SELECT id, gc_content(seq) FROM reads WHERE seq IS NOT NULL",
    "SELECT count(*), avg(gc_content(seq)) FROM reads "
    "WHERE seq IS NOT NULL",
    "SELECT length(seq) FROM reads WHERE length(seq) > 7",
    "SELECT count(*), avg(gc_content(seq)) FROM reads",
    "SELECT count(seq), min(length(seq)), max(length(seq)) FROM reads",
    "SELECT length(seq), count(*) FROM reads GROUP BY length(seq)",
    "SELECT id FROM reads WHERE id BETWEEN 10 AND 20 AND sample = 's1'",
    "SELECT id FROM reads ORDER BY gc_content(seq) DESC, id",
    "SELECT reads.id, samples.site FROM reads JOIN samples "
    "ON reads.sample = samples.name WHERE contains(seq, 'GC')",
    "SELECT sample, count(*) FROM reads WHERE seq IS NOT NULL "
    "GROUP BY sample ORDER BY sample",
    "SELECT DISTINCT sample FROM reads",
    # -- what a wrong read set breaks: a scan materialises only the
    # columns its plan names, so every place a name can hide is here.
    "SELECT 1 FROM reads",                               # no column at all
    "SELECT count(*) FROM reads WHERE seq IS NOT NULL "
    "AND contains(seq, 'AC')",                           # kernels only
    "SELECT reads.id FROM reads JOIN samples "
    "ON reads.sample = samples.name WHERE samples.site = 'lab'",
    "SELECT samples.site, reads.id FROM samples LEFT JOIN reads "
    "ON reads.sample = samples.name AND reads.id < 3",
    "SELECT samples.name, reads.id, reads.seq FROM samples LEFT JOIN reads "
    "ON reads.sample = samples.name AND reads.id > 100",  # all null-padded
    "SELECT id FROM reads WHERE EXISTS (SELECT 1 FROM samples "
    "WHERE samples.name = reads.sample AND samples.site = 'field')",
    "SELECT id FROM reads WHERE NOT EXISTS (SELECT 1 FROM samples "
    "WHERE name = sample AND site = 'lab')",             # unqualified outer
    "SELECT id FROM reads WHERE 'lab' IN (SELECT site FROM samples "
    "WHERE samples.name = reads.sample)",
    "SELECT name FROM samples WHERE name IN "
    "(SELECT sample FROM reads WHERE id < 2)",
    "SELECT site FROM samples WHERE EXISTS (SELECT 1 FROM reads WHERE "
    "reads.sample = samples.name AND EXISTS (SELECT 1 FROM samples AS s2 "
    "WHERE s2.site = samples.site AND s2.name <> reads.sample))",
    "SELECT count(*) FROM reads GROUP BY sample HAVING max(id) > 37",
    "SELECT max(id) FROM reads WHERE seq IS NOT NULL "
    "GROUP BY sample, length(seq) HAVING count(*) > 1 ORDER BY max(id)",
    "SELECT DISTINCT length(seq) FROM reads WHERE seq IS NOT NULL",
    "SELECT DISTINCT site FROM reads JOIN samples "
    "ON reads.sample = samples.name",
    "SELECT id FROM reads WHERE seq IS NOT NULL "
    "ORDER BY gc_content(seq) DESC, id",                 # spills at 2048 B
    "SELECT sample FROM reads ORDER BY id DESC",         # key not selected
    "SELECT id FROM reads JOIN reads AS r2 ON reads.id = r2.id",  # ambiguous
    "SELECT r2.id FROM reads JOIN reads AS r2 ON reads.id = r2.id "
    "WHERE sample = 's1'",                               # ambiguous in WHERE
    "SELECT samples.site FROM reads JOIN samples ON 1 = 1",  # zero-wide side
    "SELECT 1 FROM reads ORDER BY 2 + 1",                # zero-wide spill
    "SELECT count(*) FROM samples LEFT JOIN reads ON 1 = 0",
    "SELECT nope FROM reads",                            # unknown column
    "SELECT id FROM reads WHERE samples.site = 'lab'",   # unknown binding
)


#: The same traffic the way production sends it — every caller binds
#: ``?`` — plus statements where two placeholders share a line of SQL:
#: ``contains(seq, ?)`` twice is two kernels, not one slot read twice.
PARAMETERISED = (
    ("SELECT id FROM reads WHERE contains(seq, ?)", ("ACGT",)),
    ("SELECT id FROM reads WHERE seq IS NOT NULL AND contains(seq, ?)",
     ("ANT",)),
    ("SELECT id FROM reads WHERE id BETWEEN ? AND ? AND sample = ?",
     (10, 20, "s1")),
    ("SELECT reads.id, samples.site FROM reads JOIN samples "
     "ON reads.sample = samples.name WHERE contains(seq, ?)", ("GC",)),
    ("SELECT id FROM reads WHERE seq IS NOT NULL AND contains(seq, ?) "
     "AND NOT contains(seq, ?)", ("ACGT", "GGGG")),
    ("SELECT id, contains(seq, ?), contains(seq, ?) FROM reads "
     "WHERE seq IS NOT NULL", ("ACGT", "GGGG")),
    ("SELECT id, contains(seq, ?), contains(reads.seq, ?) FROM reads "
     "WHERE seq IS NOT NULL AND contains(seq, ?) ORDER BY contains(seq, ?)",
     ("ACGT", "GGGG", "AC", "GGGG")),
    ("SELECT sum(id + ?), sum(id + ?) FROM reads", (1, 100)),
    ("SELECT sample, sum(length(seq) * ?), sum(length(seq) * ?) FROM reads "
     "WHERE seq IS NOT NULL GROUP BY reads.sample", (1, 100)),
    ("SELECT sum(seq) FROM reads", ()),                  # TypeCheckError
)


def _outcome(db, sql, parameters=()):
    """Rows on success, (type, message) on error — both must match the
    oracle exactly.  Genomic UDFs raise on NULL input, so queries that
    reach a NULL ``seq`` legitimately error; the columnar path must
    reproduce the identical error, not a different one and not rows."""
    try:
        result = db.execute(sql, parameters)
        return ("rows", tuple(result.columns), tuple(result.rows))
    except DatabaseError as exc:
        return ("error", type(exc).__name__, str(exc))


_CASES = [(sql, ()) for sql in BATTERY] + list(PARAMETERISED)


@pytest.mark.parametrize("sql, parameters", _CASES,
                         ids=[sql for sql, _ in _CASES])
def test_battery_is_bit_identical_across_configs(sql, parameters):
    oracle = _outcome(_make(**CONFIGS[0]), sql, parameters)
    for config in CONFIGS[1:]:
        assert _outcome(_make(**config), sql, parameters) == oracle, (
            sql, config)


def test_distinct_literal_types_stay_distinct_aggregates():
    # 1 == 1.0 in Python: told apart by text these were always two
    # aggregates, told apart by structure they must stay two.
    for config in CONFIGS:
        rows = _make(**config).execute(
            "SELECT sum(id + 1), sum(id + 1.0) FROM reads").rows
        assert rows == [(820, 820.0)]
        assert [type(value) for value in rows[0]] == [int, float]


def test_kernels_actually_engage():
    db = _make(layout="column")
    plan = db.explain("SELECT id FROM reads WHERE contains(seq, 'ACGT')")
    assert "kernels contains(seq" in plan
    # An aggregate's argument is a page kernel like any other call: the
    # column it reads is not even materialised.
    plan = db.explain("SELECT count(*), avg(gc_content(seq)) FROM reads")
    assert "columns none; kernels gc_content(seq)" in plan
    plan = db.explain("SELECT id FROM reads WHERE id BETWEEN 3 AND 5")
    assert "zones on" in plan


def test_user_function_without_kernel_tag_is_not_vectorized():
    db = _make(layout="column")
    db.register_function("gc_content", lambda seq: 0.5, replace=True)
    plan = db.explain("SELECT gc_content(seq) FROM reads "
                      "WHERE seq IS NOT NULL")
    assert "gc_content" not in plan.split("ColumnarScan")[-1] \
        or "kernels" not in plan
    rows = db.execute("SELECT gc_content(seq) FROM reads "
                      "WHERE seq IS NOT NULL").rows
    assert all(row == (0.5,) for row in rows)


def test_error_parity_for_protein_reverse_complement():
    errors = []
    for layout in ("row", "column"):
        db = Database(layout=layout, page_rows=2)
        install_genomics(db)
        db.execute("CREATE TABLE prot (p PROTEIN_SEQ)")
        db.execute("INSERT INTO prot VALUES (protein_seq('MKV'))")
        db.execute("INSERT INTO prot VALUES (protein_seq('ACDE'))")
        with pytest.raises(DatabaseError) as caught:
            db.execute("SELECT reverse_complement(p) FROM prot")
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


def test_kernel_errors_on_dead_rows_stay_deferred():
    # Kernels evaluate whole pages, including tombstoned ordinals the
    # row path never touches.  An error produced for a dead row must
    # never surface — only errors on rows the query consumes may raise.
    def strict_len(value):
        return len(value)  # raises TypeError on NULL

    for layout in ("row", "column"):
        db = Database(layout=layout, page_rows=4)
        install_genomics(db)
        db.register_function("strict_len", strict_len, kernel="length")
        db.execute("CREATE TABLE reads (id INTEGER, seq DNA)")
        for index in range(4):  # fills exactly one sealed page
            if index == 2:
                db.execute("INSERT INTO reads VALUES (2, NULL)")
            else:
                db.execute("INSERT INTO reads VALUES (?, dna('ACGT'))",
                           (index,))
        db.execute("DELETE FROM reads WHERE id = 2")
        rows = db.execute("SELECT strict_len(seq) FROM reads").rows
        assert rows == [(4,), (4,), (4,)]
        # ... but a live erroring row raises in both layouts.
        db.execute("INSERT INTO reads VALUES (9, NULL)")
        with pytest.raises(DatabaseError) as caught:
            db.execute("SELECT strict_len(seq) FROM reads")
        assert "strict_len" in str(caught.value)


def test_updates_and_deletes_keep_differential_identity():
    databases = [_make(**config) for config in CONFIGS]
    statements = (
        "DELETE FROM reads WHERE id % 5 = 0",
        "UPDATE reads SET seq = dna('GGCC') WHERE id % 7 = 1",
        "UPDATE reads SET sample = 'mut' WHERE id > 30",
    )
    for db in databases:
        for sql in statements:
            db.execute(sql)
    oracle = databases[0].execute("SELECT * FROM reads")
    for db in databases[1:]:
        assert db.execute("SELECT * FROM reads").rows == oracle.rows
        follow = db.execute("SELECT sample, count(*) FROM reads "
                            "GROUP BY sample").rows
        assert follow == databases[0].execute(
            "SELECT sample, count(*) FROM reads GROUP BY sample").rows


# -- the read set ---------------------------------------------------------

READ_SET_RESCANS = (
    "SELECT 1 FROM reads",
    "SELECT count(*) FROM reads WHERE contains(seq, 'AC')",
    "SELECT count(*), min(id), max(id) FROM reads",
    "SELECT sample FROM reads",
    "SELECT id, length(seq) FROM reads WHERE sample = 's1'",
    "SELECT sample, count(*) FROM reads GROUP BY sample",
    "SELECT id FROM reads ORDER BY gc_content(seq) DESC, id",
    "SELECT * FROM reads",
)


def test_narrow_scans_over_tombstoned_groups_and_an_unsealed_tail():
    # A whole group dead, a group half dead, a tail with a dead row, then
    # UPDATEs that rewrite single column pages: every narrow rescan must
    # still agree with the row layout, row for row.
    databases = [_make(**config) for config in CONFIGS]
    statements = (
        "DELETE FROM reads WHERE seq IS NULL",      # kernels meet no NULL
        "DELETE FROM reads WHERE id BETWEEN 4 AND 7",    # one whole group
        "DELETE FROM reads WHERE id IN (9, 10, 21)",
        "INSERT INTO reads VALUES (40, 's9', dna('ACAC'))",
        "INSERT INTO reads VALUES (41, 's9', dna('GGAC'))",
        "INSERT INTO reads VALUES (42, 's1', dna('TT'))",
        "DELETE FROM reads WHERE id = 41",               # dead row in tail
    )
    updates = (
        "UPDATE reads SET sample = 'moved' WHERE id % 6 = 1",
        "UPDATE reads SET seq = dna('ACACGT') WHERE id % 8 = 3",
        "UPDATE reads SET id = id + 100 WHERE sample = 's2'",
    )
    for db in databases:
        for sql in statements:
            db.execute(sql)
    for round_ in (None, *updates):
        for db in databases:
            if round_ is not None:
                db.execute(round_)
        for sql in READ_SET_RESCANS:
            oracle = _outcome(databases[0], sql)
            assert oracle[0] == "rows", sql
            for db, config in zip(databases[1:], CONFIGS[1:]):
                assert _outcome(db, sql) == oracle, (sql, round_, config)


def _scans(db, sql):
    from repro.db.sql.parser import parse
    from repro.db.sql.plan import ColumnarScan
    plan = db._planner.plan_select(parse(sql))
    return [node for node in plan.walk() if isinstance(node, ColumnarScan)]


def test_explain_shows_the_read_set_only_when_it_is_a_strict_subset():
    db = _make(layout="column")
    assert "ColumnarScan(reads AS reads; columns id, sample)" in db.explain(
        "SELECT id FROM reads WHERE sample LIKE 's%'")
    assert "ColumnarScan(reads AS reads; columns id;" in db.explain(
        "SELECT count(id) FROM reads WHERE contains(seq, 'AC')")
    assert "ColumnarScan(reads AS reads; columns none; kernels" in \
        db.explain("SELECT count(*) FROM reads WHERE contains(seq, 'AC')")
    assert ("ColumnarScan(reads AS reads; columns id; "
            "kernels gc_content(seq))") in db.explain(
        "SELECT count(*), max(id), avg(gc_content(seq)) FROM reads")
    for whole in ("SELECT * FROM reads",
                  "SELECT seq, sample, id FROM reads",
                  "SELECT id FROM reads WHERE EXISTS (SELECT 1 FROM samples "
                  "WHERE samples.name = reads.sample)"):
        assert "ColumnarScan(reads AS reads)" in db.explain(whole), whole
    # Each side of a join reads what the whole statement names of it.
    plan = db.explain("SELECT reads.id FROM reads JOIN samples "
                      "ON reads.sample = samples.name")
    assert "ColumnarScan(reads AS reads; columns id, sample)" in plan
    assert "ColumnarScan(samples AS samples; columns name)" in plan


def test_an_unqualified_name_stays_in_every_scan_that_has_it():
    db = _make(layout="column")
    left, right = _scans(db, "SELECT sample FROM reads JOIN reads AS r2 "
                             "ON reads.id = r2.id")
    assert left.frame.slots == (("reads", "id"), ("reads", "sample"))
    assert right.frame.slots == (("r2", "id"), ("r2", "sample"))


def test_a_column_outside_the_read_set_cannot_be_observed():
    from repro.db.sql.expressions import RowContext
    from repro.errors import SqlSyntaxError
    db = _make(layout="column")
    (scan,) = _scans(db, "SELECT id FROM reads WHERE sample = 's1'")
    assert scan.frame.slots == (("reads", "id"), ("reads", "sample"))
    row = next(iter(scan.execute((), None)))
    assert row == (0, "s0")
    context = RowContext(scan.frame, row)
    assert context.resolve("reads", "sample") == "s0"
    # Not a silent NULL, not a stale value: the name is simply not there.
    with pytest.raises(SqlSyntaxError, match="unknown column seq"):
        context.resolve(None, "seq")
    with pytest.raises(SqlSyntaxError, match="unknown column reads.seq"):
        context.resolve("reads", "seq")
