"""Differential oracle: columnar execution ≡ row execution, bit for bit.

Every query in the battery runs across layout × optimizer × budget
configurations; the row-list layout with the optimizer off is the
oracle.  This is what licenses the vectorized kernels and zone-map
skipping: NULLs, IUPAC ambiguity codes, foreign alphabets, error
messages — all must come out exactly as the row-at-a-time path
produces them.  ``test_every_kernel_cell_is_the_registered_function``
draws the pages themselves (empty and odd-length rows, ambiguity codes,
gaps, NULLs, tombstones, one alphabet or three) and holds every kernel
to the registered function cell by cell, failures included.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter import serializers
from repro.adapter.adapter import install_genomics
from repro.core.types import (
    DnaSequence,
    ProteinSequence,
    RnaSequence,
    sequence_from_bytes,
)
from repro.core.types.alphabet import DNA, PROTEIN, RNA
from repro.db import Database, OpaqueType
from repro.db.values import NULL
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
    "SELECT id FROM reads WHERE contains(seq, 'ANT')",   # ambiguous motif
    "SELECT id FROM reads WHERE seq IS NOT NULL "
    "AND contains(seq, 'acgt')",
    "SELECT id, seq_text(reverse_complement(seq)) FROM reads",
    "SELECT id, melting_temperature(seq) FROM reads WHERE NOT "
    "contains(seq, 'GG')",                               # NULL filters too
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
    "SELECT count(*) FROM reads WHERE contains(seq, 'AC')",  # kernels only
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
    ("SELECT id, contains(seq, ?), contains(seq, ?) FROM reads",
     ("ACGT", "GGGG")),
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
    oracle exactly.  Genomic UDFs answer NULL to a NULL ``seq``, as the
    builtins do, so most of the battery reaches one unguarded; where a
    query does error (``sum(seq)``, an unknown column) the columnar path
    must reproduce the identical error, not a different one and not
    rows."""
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


@pytest.mark.parametrize("layout", ("row", "column"))
def test_a_null_sequence_is_null_to_every_genomic_function(layout):
    # One NULL ``seq`` used to fail every genomic statement over the
    # table with "'NoneType' object has no attribute 'alphabet'".
    db = _make(layout=layout)
    guard = " WHERE seq IS NOT NULL"
    aggregate = "SELECT count(*), avg(gc_content(seq)) FROM reads"
    (count, mean), = db.execute(aggregate).rows
    (present, guarded), = db.execute(aggregate + guard).rows
    assert (count, present) == (40, 36) and mean == guarded  # skipped
    for predicate in ("contains(seq, 'ACGT')", "NOT contains(seq, 'ACGT')",
                      "gc_content(seq) < 0.5"):              # filtered
        assert db.execute(f"SELECT id FROM reads WHERE {predicate}").rows \
            == db.execute(f"SELECT id FROM reads{guard} AND {predicate}").rows
    rows = db.execute(
        "SELECT id, gc_content(seq), contains(seq, 'AC'), "
        "reverse_complement(seq), melting_temperature(seq), "
        "motif_count(seq, 'AC'), seq_text(seq), dna(NULL), length(seq) "
        "FROM reads WHERE seq IS NULL").rows
    assert rows == [(index,) + (NULL,) * 8 for index in (8, 17, 26, 35)]


# -- kept forms -----------------------------------------------------------

def _typed(values) -> list:
    return [(type(value), value) for value in values]


def _parsed(page) -> "tuple | None":
    return page and (page.classes, page.index, page.lengths, page.starts,
                     page.packed, page.nulls, page.spans())


def page_bytes(cache, page_id) -> bytes:
    """A page's bytes, resident or spilled, read without a fault."""
    if page_id in cache._resident:
        return cache._resident[page_id]
    offset, length = cache._spilled[page_id]
    return os.pread(cache._spill_file.fileno(), length, offset)


def _refs(db):
    """Every column page the tables of *db* hold, as its ``PageRef``."""
    for name in db.catalog.table_names:
        store = db.catalog.table(name).column_store
        for group in store._groups if store is not None else ():
            yield from group.pages


def cell_pages(db) -> list:
    """``(source ref, kernel key, cell page id)`` of every cell page the
    tables of *db* record."""
    return [(ref, key, cell_id) for ref in _refs(db)
            for key, cell_id in ref.cells.items()]


def stale_forms(db) -> list:
    """``(page id, key)`` of every form *db*'s page cache keeps that is not
    what its page's bytes decode to now, or whose page is not resident;
    of every cell page that is not its kernel run over its source page's
    bytes now; and ``(page id, "orphan")`` of every page the cache holds
    that no table holds, as a column page or a cell page over one."""
    from repro.db.columnar import pages
    from repro.db.columnar.store import SEQ, VALUES
    from repro.db.columnar.vector import KERNELS

    cache, codec = db.columnar.cache, db.columnar.codec
    stale = []
    for page_id, forms in cache._forms.items():
        data = cache._resident.get(page_id)
        if data is None:
            stale.extend((page_id, key) for key in forms)
            continue
        values = pages.decode_page(data, codec)
        seq = pages.seq_page(data)
        for key, form in forms.items():
            if key == VALUES:
                same = _typed(form) == _typed(values)
            else:
                same = key == SEQ and _parsed(form) == _parsed(seq)
            if not same:
                stale.append((page_id, key))
    held = set()
    for ref, (tag, function), cell_id in cell_pages(db):
        held.add(cell_id)
        source = page_bytes(cache, ref.page_id)
        cells = KERNELS[tag](pages.seq_page(source),
                             lambda: pages.decode_page(source, codec),
                             function, ())
        if _typed(pages.decode_page(page_bytes(cache, cell_id), codec)) \
                != _typed(cells):
            stale.append((cell_id, (tag, function)))
    held.update(ref.page_id for ref in _refs(db))
    stale.extend((page_id, "orphan") for page_id
                 in (set(cache._resident) | set(cache._spilled)) - held)
    return stale


def test_twice_over_one_store_no_operator_writes_what_a_page_keeps():
    # Forms are shared by every scan of a resident page, and a cell page's
    # decode by every scan that reads it: an operator that wrote into a
    # batch column it was handed would change the next scan's answer.
    # The whole corpus, twice over one store per budget, must answer as
    # the oracle and leave every form and every cell page its page's
    # decode; under a budget the cache keeps pages and no form at all.
    oracles = [_outcome(_make(**CONFIGS[0]), sql, parameters)
               for sql, parameters in _CASES]
    unbudgeted = _make(layout="column")
    quarter = unbudgeted.columnar.cache.resident_bytes // 4
    for budget in (None, quarter, 64):
        db = _make(layout="column", memory_budget=budget)
        for round_ in range(2):
            for (sql, parameters), oracle in zip(_CASES, oracles):
                assert _outcome(db, sql, parameters) == oracle, (
                    sql, budget, round_)
        assert bool(db.columnar.cache._forms) is (budget is None), budget
        assert cell_pages(db), budget             # cells were sealed
        assert stale_forms(db) == [], budget


# -- drawn pages ----------------------------------------------------------

_sequences = st.one_of(
    st.text(alphabet=DNA.symbols, max_size=11).map(DnaSequence),
    st.text(alphabet="ACGT", max_size=11).map(DnaSequence),
    st.text(alphabet=RNA.symbols, max_size=7).map(RnaSequence),
    st.text(alphabet=PROTEIN.symbols, max_size=7).map(ProteinSequence))
_patterns = st.one_of(
    st.sampled_from(["", "A", "AC", "ACGT", "acg", "ANT", "GU", "MK", "-",
                     "A!", 7, DnaSequence("CG"), RnaSequence("GU")]),
    st.text(alphabet="ACGT", min_size=1, max_size=3))

KERNEL_CALLS = ("length(seq)", "gc_content(seq)", "reverse_complement(seq)",
                "contains(seq, ?)", "contains(seq)", "gc_content(seq, ?)")


def _any_sequence_table(layout, values, dead):
    db = Database(layout=layout, page_rows=4)
    install_genomics(db)
    db.register_type(OpaqueType(
        "ANYSEQ", (DnaSequence, RnaSequence, ProteinSequence),
        serializers.serialize_sequence, sequence_from_bytes))
    db.execute("CREATE TABLE t (id INTEGER, seq ANYSEQ)")
    db.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(values)))
    for index in dead:
        db.execute("DELETE FROM t WHERE id = ?", (index,))
    return db


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(NULL), _sequences), min_size=1,
                max_size=10),
       st.booleans(), st.sets(st.integers(min_value=0, max_value=9)),
       _patterns)
def test_every_kernel_cell_is_the_registered_function(values, one_alphabet,
                                                      dead, pattern):
    if one_alphabet:
        values = [value for value in values
                  if value is NULL or isinstance(value, DnaSequence)] \
            or [NULL]
    row_db, column_db = (_any_sequence_table(layout, values, dead)
                         for layout in ("row", "column"))
    for call in KERNEL_CALLS:
        parameters = (pattern,) * call.count("?")
        assert "kernels " + call.split("(")[0] in column_db.explain(
            f"SELECT {call} FROM t", parameters)
        # The whole column: the same rows, or the same first failure.
        whole = f"SELECT id, {call} FROM t"
        assert _outcome(column_db, whole, parameters) == \
            _outcome(row_db, whole, parameters), (call, pattern)
        # Cell by cell: which cells fail, and what each of the rest holds
        # (a dead row's cell is nobody's to see, whatever it holds).
        for index in range(len(values)):
            cell = f"SELECT {call} FROM t WHERE id = {index}"
            outcome = _outcome(row_db, cell, parameters)
            assert _outcome(column_db, cell, parameters) == outcome, (
                call, pattern, index)
            if index in dead:
                assert outcome[2] == ()


def test_a_match_across_two_rows_is_no_match():
    # The page is one buffer: `…AC` ends a row and `GT…` begins the next
    # (and `ACG` | pad nibble `A` | `CGT…` hides an `ACG·ACGT` run).
    values = ["TTAC", "GTTT", "ACG", "CGTA", "ACGT", "AC", "", "GT"]
    rows = [(index, DnaSequence(text)) for index, text in enumerate(values)]
    for layout in ("row", "column"):
        db = Database(layout=layout, page_rows=8)
        install_genomics(db)
        db.execute("CREATE TABLE t (id INTEGER, seq DNA)")
        db.executemany("INSERT INTO t VALUES (?, ?)", rows)
        assert db.execute("SELECT id FROM t WHERE contains(seq, 'ACGT')"
                          ).rows == [(4,)]
        assert db.execute("SELECT id FROM t WHERE contains(seq, 'AA')"
                          ).rows == []
        assert db.execute("SELECT id FROM t WHERE contains(seq, 'GT')"
                          ).rows == [(1,), (3,), (4,), (7,)]


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
