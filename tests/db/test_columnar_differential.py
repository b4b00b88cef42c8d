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
    plan = db.explain("SELECT count(*), avg(gc_content(seq)) FROM reads")
    assert "VectorAggregate" in plan
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
