"""ColumnStore heap-protocol parity against the legacy row heap.

The column layout must be observably identical to the row layout from
the executor's side: stable never-reused row ids, insertion-order
iteration, in-place updates, tombstoned deletes, rollback in place.
These tests mirror random workloads through both layouts and also poke
the store directly (group views, zone pruning, the tail/sealed split).
"""

import os
import random

import pytest

from repro.adapter.adapter import install_genomics
from repro.db import Database
from repro.db.values import NULL
from repro.obs.metrics import disable_metrics, enable_metrics
from tests.db.test_columnar_differential import cell_pages, stale_forms

PAGE_ROWS = 8


def _pair(memory_budget=None):
    """A (row, column) database pair with identical schemas."""
    row = Database(layout="row")
    column = Database(layout="column", memory_budget=memory_budget,
                      page_rows=PAGE_ROWS)
    for db in (row, column):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                   "k INTEGER, name TEXT, score REAL)")
    return row, column


def _both(databases, sql, parameters=()):
    results = [db.execute(sql, parameters) for db in databases]
    first = results[0]
    for other in results[1:]:
        if hasattr(first, "rows"):
            assert other.rows == first.rows, sql
        else:
            assert other == first, sql
    return first


def test_random_workload_parity():
    rng = random.Random("columnar-store-parity")
    databases = _pair(memory_budget=1024)
    live = []
    next_id = 0
    for _ in range(400):
        action = rng.random()
        if action < 0.55 or not live:
            next_id += 1
            live.append(next_id)
            _both(databases,
                  "INSERT INTO t VALUES (?, ?, ?, ?)",
                  (next_id, rng.randrange(50),
                   rng.choice(("alpha", "beta", "gamma", None)),
                   round(rng.random(), 6)))
        elif action < 0.80:
            target = rng.choice(live)
            _both(databases,
                  "UPDATE t SET k = ?, name = ? WHERE id = ?",
                  (rng.randrange(50), "updated", target))
        else:
            target = rng.choice(live)
            live.remove(target)
            _both(databases, "DELETE FROM t WHERE id = ?", (target,))
    # Bare scans compare row for row: same rows, same order.
    _both(databases, "SELECT * FROM t")
    _both(databases, "SELECT id, k FROM t WHERE k BETWEEN 10 AND 30")
    _both(databases, "SELECT name, count(*), avg(score) FROM t "
                     "GROUP BY name")
    _both(databases, "SELECT * FROM t ORDER BY k DESC, id")


def test_row_ids_stable_and_updates_keep_scan_position():
    _, column = _pair()
    db = column
    for index in range(PAGE_ROWS * 2 + 3):  # two sealed groups + a tail
        db.execute("INSERT INTO t VALUES (?, ?, 'x', 0.0)",
                   (index, index))
    db.execute("DELETE FROM t WHERE id IN (0, 9, 17)")
    # An update rewrites the sealed page in place: the row keeps its
    # original scan position.
    db.execute("UPDATE t SET k = 999 WHERE id = 3")
    ids = db.execute("SELECT id, k FROM t").rows
    expected = [(index, 999 if index == 3 else index)
                for index in range(PAGE_ROWS * 2 + 3)
                if index not in (0, 9, 17)]
    assert ids == expected
    # Row ids are never reused: new inserts continue past the deletes.
    db.execute("INSERT INTO t VALUES (100, 100, 'y', 1.0)")
    assert db.execute("SELECT id FROM t").rows[-1] == (100,)


def test_transaction_rollback_restores_column_store():
    # Scan order included, on both layouts: the column store revives
    # its tombstones in place, the row heap re-sorts by row id.
    for db in _pair():
        for index in range(PAGE_ROWS + 2):
            db.execute("INSERT INTO t VALUES (?, ?, 'x', 0.0)",
                       (index, index))
        db.execute("DELETE FROM t WHERE id = 9")  # a tombstone to keep
        before = db.execute("SELECT * FROM t").rows
        db.begin()
        db.execute("DELETE FROM t WHERE id < 5 OR id = 8")  # sealed, tail
        db.execute("UPDATE t SET name = 'mut' WHERE id = 7")
        db.execute("INSERT INTO t VALUES (50, 50, 'new', 9.0)")
        assert db.execute("SELECT * FROM t").rows != before
        db.rollback()
        assert db.execute("SELECT * FROM t").rows == before
        db.execute("INSERT INTO t VALUES (9, 9, 'again', 1.0)")
        assert db.execute("SELECT id FROM t").rows[-1] == (9,)


def test_zone_pruning_skips_pages_and_loses_no_rows():
    registry = enable_metrics()
    try:
        row, column = _pair()
        for index in range(PAGE_ROWS * 8):  # sorted → tight zone maps
            for db in (row, column):
                db.execute("INSERT INTO t VALUES (?, ?, 'x', 0.0)",
                           (index, index))
        result = _both((row, column),
                       "SELECT id FROM t WHERE k BETWEEN 20 AND 25")
        assert len(result.rows) == 6
        assert registry.snapshot()["columnar_pages_skipped"] > 0
    finally:
        disable_metrics()


def test_group_views_expose_live_offsets():
    _, db = _pair()
    for index in range(PAGE_ROWS + 3):  # one sealed group + a tail
        db.execute("INSERT INTO t VALUES (?, ?, 'x', 0.0)",
                   (index, index))
    db.execute("DELETE FROM t WHERE id IN (2, ?)", (PAGE_ROWS + 1,))
    store = db.catalog.table("t").column_store
    views = list(store.scan())
    assert [view._group is not None for view in views] == [True, False]
    for view in views:
        column = view.column_values(0)
        for offset, row in view.enumerate_rows():
            assert row[0] == column[offset]  # offsets index page results
        live = [row[0] for _, row in view.enumerate_rows()]
        assert 2 not in live and PAGE_ROWS + 1 not in live
    assert len(store) == PAGE_ROWS + 1


def test_genomic_and_null_columns_round_trip_through_pages():
    row = Database(layout="row")
    column = Database(layout="column", page_rows=4)
    for db in (row, column):
        install_genomics(db)
        db.execute("CREATE TABLE reads (id INTEGER, seq DNA)")
        for index in range(10):
            if index % 3 == 2:
                db.execute("INSERT INTO reads VALUES (?, NULL)", (index,))
            else:
                db.execute(
                    "INSERT INTO reads VALUES (?, dna(?))",
                    (index, "ACGT" * (index + 1)))
    results = [db.execute("SELECT id, seq_text(seq), seq FROM reads "
                          "WHERE seq IS NOT NULL").rows
               for db in (row, column)]
    assert results[0] == results[1]
    nulls = [db.execute("SELECT id FROM reads WHERE seq IS NULL").rows
             for db in (row, column)]
    assert nulls[0] == nulls[1] and len(nulls[0]) == 3
    assert NULL not in [value for row_ in results[0] for value in row_]


def test_page_counters_count_the_pages_a_scan_reads_and_saves(monkeypatch):
    # (id, k, gc, org, seq): five pages per group.  A scan fetches one
    # page per column it reads per group, a kernel fetches its column's
    # stored page and decodes nothing, and a pruned group counts only
    # the pages the scan would otherwise have fetched.  A page is decoded
    # once while it stays resident: the first scan that needs a form
    # builds it (``columnar_pages_decoded``), every later scan reads the
    # same pages and decodes none.  An argument-free kernel's first scan
    # seals its cells as one cell page per page; every later scan reads
    # the page and its cell page, two ``pages_read``, and runs nothing.
    from repro.db.columnar import pages

    groups, tail = 6, 3
    db = Database(layout="column", page_rows=PAGE_ROWS)
    install_genomics(db)
    db.execute("CREATE TABLE reads (id INTEGER, k INTEGER, gc REAL, "
               "org TEXT, seq DNA)")
    for index in range(groups * PAGE_ROWS + tail):
        db.execute("INSERT INTO reads VALUES (?, ?, ?, ?, dna(?))",
                   (index, index // 4, index / 100, f"o{index % 3}",
                    "ACGT" * (1 + index % 5)))
    decoded = []
    decode_page = pages.decode_page
    monkeypatch.setattr(
        pages, "decode_page",
        lambda data, *args, **kwargs: (decoded.append(data),
                                       decode_page(data, *args, **kwargs))[1])

    def counters(sql, parameters=(), sealed=0):
        """``(pages read, pages skipped, decode_page calls, forms built)``
        of the first scan; the second reads *sealed* more pages (the cell
        pages the first sealed) and builds and decodes none."""
        scans = []
        for __ in range(2):
            registry = enable_metrics()
            del decoded[:]
            try:
                db.execute(sql, parameters)
                snapshot = registry.snapshot()
            finally:
                disable_metrics()
            scans.append((snapshot.get("columnar_pages_read", 0),
                          snapshot.get("columnar_pages_skipped", 0),
                          len(decoded),
                          snapshot.get("columnar_pages_decoded", 0)))
        first, second = scans
        assert second == (first[0] + sealed, first[1], 0, 0), (sql, second)
        return first

    assert counters("SELECT count(*), avg(gc), min(k), max(k) FROM reads") \
        == (groups * 2, 0, groups * 2, groups * 2)
    # The kernels parse SEQ pages (one form each) and decode no value.
    assert counters("SELECT count(*) FROM reads WHERE contains(seq, ?)",
                    ("GTAC",)) == (groups, 0, 0, groups)
    assert counters("SELECT count(*), avg(gc_content(seq)) FROM reads",
                    sealed=groups) == (groups, 0, 0, groups)
    # gc and k were decoded by the first statement and are still resident.
    assert counters("SELECT * FROM reads") \
        == (groups * 5, 0, groups * 3, groups * 3)
    assert counters("SELECT 1 FROM reads") == (0, 0, 0, 0)
    # k = id // 4 and a group holds 8 ids, so k BETWEEN 4 AND 5 is group 2:
    # one group read for (id, k, gc), five pruned — and a pruned group
    # saved three page reads, not five.
    assert counters("SELECT id, gc FROM reads WHERE k BETWEEN 4 AND 5") \
        == (3, (groups - 1) * 3, 0, 0)
    # Whole-row access (index fetch, UPDATE, Table.rows) reads whole rows.
    registry = enable_metrics()
    try:
        db.execute("UPDATE reads SET gc = 0.5 WHERE id = 1")
        assert registry.snapshot()["columnar_pages_read"] >= 5
    finally:
        disable_metrics()


# -- what a resident page keeps beside its bytes --------------------------

def _genomic_pair(memory_budget=None):
    from tests.db.test_columnar_differential import _make
    return (_make(layout="row"),
            _make(layout="column", memory_budget=memory_budget))


KEEPING = ("SELECT * FROM reads",
           "SELECT count(*), avg(gc_content(seq)), max(length(seq)) "
           "FROM reads",
           "SELECT id FROM reads WHERE contains(seq, 'ACGT')")


def _scan_all(databases):
    for sql in KEEPING:
        _both(databases, sql)


def test_a_kept_form_never_skips_the_crc_check():
    from repro.errors import StorageError

    from repro.db.columnar.store import SEQ, VALUES

    _, db = _genomic_pair()
    _scan_all((db,))
    cache = db.columnar.cache
    sealed = cell_pages(db)
    (source, _, cell), cells = sealed[0], {page for *_, page in sealed}

    def kept(form):
        return next(page_id for page_id, forms in cache._forms.items()
                    if form in forms and page_id not in cells)

    # Each statement meets one page it reads with a bit of its body
    # flipped: a page whose values or parsed SEQ body is kept, and the
    # page a kernel's cells were sealed over or their cell page.
    for sql, page_id in ((KEEPING[0], kept(VALUES)),
                         (KEEPING[1], source.page_id), (KEEPING[1], cell),
                         (KEEPING[2], kept(SEQ))):
        data = cache._resident[page_id]
        middle = len(data) // 2
        cache._resident[page_id] = (data[:middle]
                                    + bytes([data[middle] ^ 0x10])
                                    + data[middle + 1:])
        with pytest.raises(StorageError) as raised:
            db.execute(sql)
        assert raised.value.kind == "bit_rot"
        cache._resident[page_id] = data
    _scan_all((db,))


def test_under_a_budget_only_resident_pages_keep_forms():
    from tests.db.test_columnar_differential import _make
    encoded = _make(layout="column").columnar.cache.resident_bytes
    for budget in (encoded // 4, encoded // 2, 64):
        databases = _genomic_pair(budget)
        cache = databases[1].columnar.cache
        for sql in KEEPING * 3:
            _both(databases, sql)
            assert cache._forms == {}, (budget, sql)
        assert cache.pages_evicted > 0
        assert stale_forms(databases[1]) == []


def test_no_write_leaves_a_stale_form():
    # Unbudgeted, with kept forms; at 64 bytes, with spilled cell pages.
    for budget in (None, 64):
        _no_write_leaves_a_stale_form(budget)


def _no_write_leaves_a_stale_form(budget):
    databases = _genomic_pair(budget)
    db = databases[1]
    _scan_all(databases)
    # UPDATE of a sealed row: its rewritten pages come under fresh ids.
    _both(databases, "UPDATE reads SET seq = dna('GGGCCCAT'), sample = 'u' "
                     "WHERE id IN (1, 6, 13)")
    assert stale_forms(db) == []
    _scan_all(databases)
    # DELETE, then rolled back: the tombstones revive in place.
    for each in databases:
        each.begin()
        each.execute("DELETE FROM reads WHERE id % 3 = 0")
    _scan_all(databases)
    for each in databases:
        each.rollback()
    assert stale_forms(db) == []
    _scan_all(databases)
    db.columnar.close()
    cache = db.columnar.cache
    assert (cache._forms, cache._resident, cache._spilled) == ({}, {}, {})


def test_a_user_function_named_like_a_kernel_never_reads_its_cells():
    _, db = _genomic_pair()
    for name in ("gc_content", "reverse_complement"):
        sql = f"SELECT {name}(seq) FROM reads WHERE seq IS NOT NULL"
        assert len(set(db.execute(sql).rows)) > 1
        # No kernel tag: evaluated value by value.
        db.register_function(name, lambda seq: "untagged", replace=True)
        assert set(db.execute(sql).rows) == {("untagged",)}
    # The tag on another function: kept under that function, so the
    # builtin's cells are never its answer (the reverse_complement
    # kernel leaves every cell to the registered function).
    db.register_function("reverse_complement", lambda seq: "tagged",
                         replace=True, kernel="reverse_complement")
    sql = "SELECT reverse_complement(seq) FROM reads WHERE seq IS NOT NULL"
    assert "kernels reverse_complement(seq)" in db.explain(sql)
    assert set(db.execute(sql).rows) == {("tagged",)}


def test_a_failed_kernel_cell_is_never_kept():
    # Each scan captures its own failure: one exception object raised by
    # two statements would carry (and grow) one traceback.
    from repro.errors import DatabaseError

    db = Database(layout="column", page_rows=2)
    install_genomics(db)
    db.execute("CREATE TABLE prot (p PROTEIN_SEQ)")
    for text in ("MKV", "ACDE", "W", "GG"):
        db.execute("INSERT INTO prot VALUES (protein_seq(?))", (text,))
    raised = []
    for __ in range(2):
        with pytest.raises(DatabaseError) as caught:
            db.execute("SELECT reverse_complement(p) FROM prot")
        raised.append(caught.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1])
    assert cell_pages(db) == []
    assert not any(type(key) is tuple
                   for forms in db.columnar.cache._forms.values()
                   for key in forms)


def _typed_rows(rows) -> list:
    return [(type(value), value) for row in rows for value in row]


def test_cell_pages_spill_and_fault_back_bit_identical(monkeypatch):
    # At 64 bytes no two pages are resident at once: a kernel's cells
    # outlive their residency as a spilled cell page, and every later
    # scan faults them back, verified, and runs no kernel.
    from repro.db.columnar import pages

    row, db = _genomic_pair(64)
    cache = db.columnar.cache
    sql = "SELECT id, gc_content(seq), length(seq) FROM reads"
    twin = _typed_rows(row.execute(sql).rows)
    assert _typed_rows(db.execute(sql).rows) == twin
    sealed = cell_pages(db)
    assert len(sealed) == 2 * 10          # two kernels, ten sealed groups
    assert sum(cell_id in cache._spilled
               for _, __, cell_id in sealed) >= len(sealed) - 1
    parsed = []
    seq_page = pages.seq_page
    monkeypatch.setattr(pages, "seq_page", lambda *args, **kwargs: (
        parsed.append(1), seq_page(*args, **kwargs))[1])
    for _ in range(2):
        faults = cache.page_faults
        assert _typed_rows(db.execute(sql).rows) == twin
        assert cache.page_faults - faults >= len(sealed)
    assert parsed == [] and cell_pages(db) == sealed
    assert cache._forms == {} and stale_forms(db) == []


def test_two_scans_at_once_seal_one_cell_page_per_page(monkeypatch):
    # Two scans build the first page's cells before either seals them:
    # sealing is atomic, so one cell page is kept and none is orphaned.
    import threading

    from repro.db.columnar import pages

    db, twin = _reads(), _reads(layout="row")
    sql = "SELECT count(*), avg(gc_content(seq)) FROM reads"
    barrier, waited = threading.Barrier(2, timeout=10), set()
    encode_page = pages.encode_page

    def encode(values, type_name, codec):
        if type_name is None and threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            barrier.wait()
        return encode_page(values, type_name, codec)

    monkeypatch.setattr(pages, "encode_page", encode)
    answers = []
    scans = [threading.Thread(target=lambda: answers.append(
        db.execute(sql).rows)) for _ in range(2)]
    for scan in scans:
        scan.start()
    for scan in scans:
        scan.join(timeout=30)
        assert not scan.is_alive()
    assert answers == [twin.execute(sql).rows] * 2
    groups = db.catalog.table("reads").column_store._groups
    assert len(cell_pages(db)) == len(groups)
    assert stale_forms(db) == []


@pytest.mark.parametrize("budget", (None, 64))
def test_a_tagged_user_function_never_reads_the_builtins_cells(budget):
    # Cells are sealed per (kernel tag, registered function): the
    # reverse_complement kernel leaves every cell to the function, so
    # each function tagged with it answers for itself, sealed or not.
    _, db = _genomic_pair(budget)
    sql = "SELECT reverse_complement(seq) FROM reads WHERE seq IS NOT NULL"
    assert len(set(db.execute(sql).rows)) > 1
    for answer in (0.5, 1.5, "tagged"):
        db.register_function("reverse_complement",
                             lambda seq, answer=answer: answer,
                             replace=True, kernel="reverse_complement")
        for _ in range(2):
            assert set(db.execute(sql).rows) == {(answer,)}, answer
    assert {key[1](None) for _, key, __ in cell_pages(db)} == {0.5, 1.5}
    assert stale_forms(db) == []


# -- one memory bound, and a scan that cannot flush it ----------------------

#: The six statement shapes of the analytics workload.
ANALYTICS = (
    ("SELECT id, gc FROM reads WHERE k BETWEEN ? AND ?", (10, 13)),
    ("SELECT count(*), avg(gc), min(k), max(k) FROM reads", ()),
    ("SELECT count(*), avg(gc_content(seq)) FROM reads", ()),
    ("SELECT org, count(*), avg(gc) FROM reads GROUP BY org", ()),
    ("SELECT count(*) FROM reads WHERE contains(seq, ?)", ("ACGTA",)),
    ("SELECT id, k FROM reads ORDER BY gc DESC, id", ()),
)


def _reads(layout="column", memory_budget=None, count=1024):
    """Sequencing reads ``(id, k, gc, org, seq)``, ``k`` ascending, in
    row groups of 64."""
    rng = random.Random("analytics-reads")
    db = Database(layout=layout, memory_budget=memory_budget, page_rows=64)
    install_genomics(db)
    db.execute("CREATE TABLE reads (id INTEGER, k INTEGER, gc REAL, "
               "org TEXT, seq DNA)")
    rows = []
    for index in range(count):
        seq = "".join(rng.choice("ACGT") for _ in range(60))
        rows.append((index, index // 8, (seq.count("G") + seq.count("C"))
                     / 60, rng.choice(("ecoli", "yeast", "human")), seq))
    db.executemany("INSERT INTO reads VALUES (?, ?, ?, ?, dna(?))", rows)
    return db


def _encoded_reads(**kwargs):
    return _reads(**kwargs).columnar.cache.resident_bytes


def test_pages_and_held_rows_stay_within_the_budget():
    budget = _encoded_reads() // 4
    budgeted, twin = _reads(memory_budget=budget), _reads(layout="row")
    cache = budgeted.columnar.cache
    registry = enable_metrics()
    try:
        for sql, parameters in ANALYTICS * 2:
            assert (budgeted.execute(sql, parameters).rows
                    == twin.execute(sql, parameters).rows), sql
            assert cache.peak_resident_bytes <= budget, sql
            assert cache._charged == 0, sql  # every charge released
        snapshot = registry.snapshot()
    finally:
        disable_metrics()
    # ...with the sort's rows charged, not beside the bound: it spilled.
    assert snapshot["executor_spill_runs"] > 0
    assert snapshot["columnar_resident_peak"] == cache.peak_resident_bytes


def _scan_faults(db, sql="SELECT * FROM reads"):
    """``(pages read, pages faulted)`` by one run of *sql*."""
    registry = enable_metrics()
    try:
        db.execute(sql)
        snapshot = registry.snapshot()
    finally:
        disable_metrics()
    return (snapshot["columnar_pages_read"],
            snapshot.get("columnar_page_faults", 0))


def test_a_scan_larger_than_the_budget_does_not_flush_the_cache():
    db = _reads(memory_budget=_encoded_reads() // 4)
    first, *again = [_scan_faults(db) for _ in range(3)]
    assert first[1] > 0
    for read, faulted in again:
        assert faulted < read  # under LRU, every page faulted every time


def test_point_reads_keep_their_pages_through_scans():
    db = _reads(memory_budget=_encoded_reads() // 4)
    table, cache = db.catalog.table("reads"), db.columnar.cache
    row_ids = [row_id for row_id, _ in table.rows()]
    # Rows of two row groups (ten pages: well inside the budget).
    points = row_ids[64:128:5] + row_ids[640:704:5]
    for scans in (False, True):
        faults = []
        for _ in range(4):
            before = cache.page_faults
            for row_id in points:
                table.row(row_id)
            faults.append(cache.page_faults - before)
            if scans:
                _scan_faults(db)
        # Point reads enter hot: their two groups fault in once at most
        # (what LRU does for a set that fits), and a scan between two
        # passes faults its pages in cold, never flushing them.
        assert faults[0] <= 10 and faults[1:] == [0, 0, 0], (scans, faults)


# -- the spill file ----------------------------------------------------------

def _spilling_pair():
    """A row twin and a 64-byte column table of 16 rows in four sealed
    groups: no two pages are resident at once, so every page spills."""
    databases = _pair(memory_budget=64)
    for db in databases:
        db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", [
            (index, index % 2, f"n{index}", index / 4) for index in range(16)])
    _both(databases, "SELECT * FROM t")
    return databases


def test_a_rewritten_page_reuses_a_dropped_extent_of_the_spill_file():
    databases = _spilling_pair()
    cache = databases[1].columnar.cache
    sizes = []
    for _ in range(6):
        # One group's pages come under fresh ids; the old ones' extents
        # are free, and the new pages (the same sizes) are written there.
        _both(databases,
              "UPDATE t SET k = 1 - k, score = -score WHERE id < 4")
        _both(databases, "SELECT * FROM t")
        sizes.append(os.fstat(cache._spill_file.fileno()).st_size)
    assert sizes[1:] == sizes[:1] * 5, sizes
    databases[1].columnar.close()
    assert cache._spill_file is None and cache._spilled == {}


def test_a_byte_flipped_in_the_spill_file_is_bit_rot_at_the_fault():
    from repro.errors import StorageError

    _, db = _spilling_pair()
    cache = db.columnar.cache
    page_id = next(page_id for page_id in cache._spilled
                   if page_id not in cache._resident)
    offset, length = cache._spilled[page_id]
    handle = cache._spill_file.fileno()
    byte = os.pread(handle, 1, offset + length // 2)
    os.pwrite(handle, bytes([byte[0] ^ 0x10]), offset + length // 2)
    faults = cache.page_faults
    with pytest.raises(StorageError) as raised:
        db.execute("SELECT * FROM t")
    assert raised.value.kind == "bit_rot"
    assert cache.page_faults > faults
