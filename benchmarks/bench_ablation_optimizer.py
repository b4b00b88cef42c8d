"""Experiment A4 — genomic-selectivity-aware optimization (section 6.5).

"Optimisation rules for genomic data, information about the selectivity
of genomic predicates, and cost estimation of access plans containing
genomic operators would enormously increase the performance of query
execution."

We measure:

- plan choice: with predicates of different shapes available, the
  optimizer picks the access path priced cheapest by the selectivity
  model, and that choice pays off at execution time;
- estimation quality: the optimizer's row estimates for genomic
  predicates vs actual result sizes.

Standalone report:  python benchmarks/bench_ablation_optimizer.py
"""

import random
import time

import pytest

from repro.adapter import install_genomics
from repro.core.types import DnaSequence
from repro.db import Database

ROWS = 400
MOTIF = "ATGGCCATTGTA"  # planted in ~5% of rows


def _build(with_indexes=True, rows=ROWS, optimize=True):
    rng = random.Random(41)
    database = Database(optimize=optimize)
    install_genomics(database)
    database.execute(
        "CREATE TABLE frags (id INTEGER PRIMARY KEY, organism TEXT, "
        "seq DNA)"
    )
    organisms = ["E. coli", "yeast", "mouse", "human"]
    matches = 0
    for row_id in range(rows):
        body = "".join(rng.choice("ACGT") for __ in range(300))
        if rng.random() < 0.05:
            body = MOTIF + body[len(MOTIF):]
            matches += 1
        database.execute(
            "INSERT INTO frags VALUES (?, ?, ?)",
            [row_id, organisms[row_id % 4], DnaSequence(body)],
        )
    if with_indexes:
        database.execute(
            "CREATE INDEX iseq ON frags (seq) USING kmer WITH (k = 8)"
        )
        database.execute(
            "CREATE INDEX iorg ON frags (organism) USING hash"
        )
    return database, matches


COMBINED = ("SELECT id FROM frags WHERE contains(seq, ?) "
            "AND organism = ?")

#: The pair of statements every warehouse delta is: a keyed DELETE and
#: the re-INSERT of the row it removed.
KEYED_SIZES = (400, 1600)


def _keyed_write_us(rows, optimize, pairs=200):
    """Microseconds per statement of ``DELETE … WHERE id = ?`` followed
    by the re-INSERT of that row, over *pairs* keys spread over a
    *rows*-row table without secondary indexes."""
    database, __ = _build(with_indexes=False, rows=rows, optimize=optimize)
    table = database.catalog.table("frags")
    kept = {row[0]: list(row) for __, row in table.rows()}
    keys = random.Random(7).sample(sorted(kept), pairs)
    start = time.perf_counter()
    for key in keys:
        assert database.execute("DELETE FROM frags WHERE id = ?", [key]) == 1
        database.execute("INSERT INTO frags VALUES (?, ?, ?)", kept[key])
    elapsed = time.perf_counter() - start
    assert len(table) == rows
    return elapsed / (2 * pairs) * 1e6


JOIN = ("SELECT frags.organism, notes.note FROM frags "
        "JOIN notes ON frags.id = notes.frag_id")


def _keyed_join_us(rows, strategy):
    """Microseconds per joined row of ``frags JOIN notes`` (every second
    fragment has a note) over *rows* left rows: as a nested loop
    (optimizer off), a hash join (``notes.frag_id`` not indexed) or an
    index join (it is)."""
    database, __ = _build(with_indexes=False, rows=rows,
                          optimize=strategy != "nested_loop")
    database.execute("CREATE TABLE notes (frag_id INTEGER, note TEXT)")
    if strategy == "index":
        database.execute("CREATE INDEX inote ON notes (frag_id) USING hash")
    database.executemany("INSERT INTO notes VALUES (?, ?)",
                         [(key, f"note {key}") for key in range(0, rows, 2)])
    label = {"nested_loop": "NestedLoopJoin", "hash": "HashJoin",
             "index": "IndexJoin"}[strategy]
    assert label in database.explain(JOIN)
    repeats = 1 if strategy == "nested_loop" else 5
    start = time.perf_counter()
    for __ in range(repeats):
        joined = len(database.query(JOIN))
    elapsed = time.perf_counter() - start
    assert joined == rows // 2
    return elapsed / (repeats * joined) * 1e6


@pytest.fixture(scope="module")
def optimized():
    return _build(with_indexes=True)


@pytest.fixture(scope="module")
def unoptimized():
    return _build(with_indexes=False)


@pytest.mark.benchmark(group="a4-plans")
def test_bench_optimized_combined_predicate(benchmark, optimized):
    database, __ = optimized
    result = benchmark(database.query, COMBINED, [MOTIF, "E. coli"])
    assert len(result) >= 0


@pytest.mark.benchmark(group="a4-plans")
def test_bench_unoptimized_combined_predicate(benchmark, unoptimized):
    database, __ = unoptimized
    result = benchmark(database.query, COMBINED, [MOTIF, "E. coli"])
    assert len(result) >= 0


class TestA4Shape:
    def test_selectivity_picks_the_contains_index(self, optimized):
        database, __ = optimized
        plan = database.explain(
            "SELECT id FROM frags "
            f"WHERE contains(seq, '{MOTIF}') AND organism = 'E. coli'"
        )
        # contains (selectivity .05) prices below the organism hash
        # probe's output only when it narrows harder; the plan must pick
        # exactly one index access and filter the rest.
        assert plan.count("IndexContainsScan") \
            + plan.count("IndexEqualScan") == 1
        assert "Filter" in plan

    def test_optimized_beats_unoptimized(self, optimized, unoptimized):
        fast_db, __ = optimized
        slow_db, __ = unoptimized

        def timed(database):
            start = time.perf_counter()
            for __ in range(3):
                database.query(COMBINED, [MOTIF, "E. coli"])
            return time.perf_counter() - start

        assert timed(fast_db) < timed(slow_db)

    def test_results_identical(self, optimized, unoptimized):
        fast_db, __ = optimized
        slow_db, __ = unoptimized
        assert sorted(fast_db.query(COMBINED, [MOTIF, "E. coli"]).rows) \
            == sorted(slow_db.query(COMBINED, [MOTIF, "E. coli"]).rows)

    def test_estimates_track_actuals(self, optimized):
        """The selectivity model's estimates vs measured cardinalities."""
        database, planted = optimized
        cases = [
            (f"contains(seq, '{MOTIF}')", 0.05 * ROWS),
            ("organism = 'E. coli'", 0.05 * ROWS),  # eq default estimate
        ]
        for predicate, estimate in cases:
            actual = len(database.query(
                f"SELECT id FROM frags WHERE {predicate}"
            ))
            # Within an order of magnitude is what rule-based costing
            # promises (and what plan choice needs).
            assert actual <= 10 * max(estimate, 1)

    def test_analyze_makes_equality_estimates_exact(self):
        """ANALYZE replaces the fixed default with 1/ndistinct."""
        database, __ = _build(with_indexes=False)
        actual = len(database.query(
            "SELECT id FROM frags WHERE organism = 'E. coli'"
        ))
        before = database.explain(
            "SELECT id FROM frags WHERE organism = 'E. coli'"
        )
        assert f"~{0.05 * ROWS:.0f} rows" in before  # default 5%
        database.execute("ANALYZE frags")
        after = database.explain(
            "SELECT id FROM frags WHERE organism = 'E. coli'"
        )
        assert f"~{actual} rows" in after  # 4 organisms -> exact quarter


def report() -> dict:
    print("A4: selectivity-aware plan choice "
          f"({ROWS} rows, combined genomic + scalar predicate)")
    print()
    fast_db, planted = _build(with_indexes=True)
    slow_db, __ = _build(with_indexes=False)

    def timed(database):
        start = time.perf_counter()
        for __ in range(5):
            rows = database.query(COMBINED, [MOTIF, "E. coli"])
        return len(rows), (time.perf_counter() - start) / 5 * 1000

    count, fast_ms = timed(fast_db)
    __, slow_ms = timed(slow_db)
    print(f"{'plan':<42} {'ms/query':>9}")
    print("-" * 53)
    print(f"{'optimizer + genomic selectivity (indexes)':<42} "
          f"{fast_ms:>9.2f}")
    print(f"{'no indexes (sequential scan + filters)':<42} "
          f"{slow_ms:>9.2f}")
    print(f"\nspeedup {slow_ms / fast_ms:.1f}x, {count} matching rows")
    print("\nchosen plan:")
    print(fast_db.explain(
        f"SELECT id FROM frags WHERE contains(seq, '{MOTIF}') "
        f"AND organism = 'E. coli'"
    ))
    print("\nestimation quality (default rules):")
    for predicate, label, selectivity in (
        (f"contains(seq, '{MOTIF}')", "contains (sel .05)", 0.05),
        ("organism = 'E. coli'", "equality (sel .05)", 0.05),
        ("id < 100", "range (sel .25)", 0.25),
    ):
        actual = len(fast_db.query(
            f"SELECT id FROM frags WHERE {predicate}"
        ))
        print(f"  {label:<22} estimated ~{selectivity * ROWS:>5.0f}"
              f"   actual {actual:>4}")

    fast_db.execute("ANALYZE frags")
    stats = fast_db.catalog.table("frags").statistics
    print("\nafter ANALYZE (1/ndistinct statistics):")
    for column, predicate in (("organism", "organism = 'E. coli'"),
                              ("id", "id = 7")):
        actual = len(fast_db.query(
            f"SELECT id FROM frags WHERE {predicate}"
        ))
        estimate = ROWS / stats[column]
        print(f"  {column + ' equality':<22} estimated ~{estimate:>5.0f}"
              f"   actual {actual:>4}")

    print("\nkeyed DELETE + re-INSERT (us per statement; the optimizer "
          "picks a write's access path too):")
    keyed_writes = []
    for rows in KEYED_SIZES:
        on_us = _keyed_write_us(rows, optimize=True)
        off_us = _keyed_write_us(rows, optimize=False)
        keyed_writes.append({"rows": rows, "optimizer_on_us": on_us,
                             "optimizer_off_us": off_us})
        print(f"  {rows:>5} rows   optimizer on {on_us:>7.1f}"
              f"   off {off_us:>8.1f}   ({off_us / on_us:.1f}x)")
    print("\nkeyed join, every second row matched (us per joined row; "
          "the strategy follows the right key's access path):")
    keyed_joins = []
    for rows in KEYED_SIZES:
        entry = {"rows": rows}
        for strategy in ("nested_loop", "hash", "index"):
            entry[f"{strategy}_us"] = _keyed_join_us(rows, strategy)
        keyed_joins.append(entry)
        print(f"  {rows:>5} rows   nested loop {entry['nested_loop_us']:>8.1f}"
              f"   hash {entry['hash_us']:>5.2f}"
              f"   index {entry['index_us']:>5.2f}")
    return {
        "rows": ROWS,
        "keyed_joins": keyed_joins,
        "indexed_ms": fast_ms,
        "seq_scan_ms": slow_ms,
        "speedup": slow_ms / fast_ms,
        "matching_rows": count,
        "keyed_writes": keyed_writes,
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    write_bench_json("ablation_optimizer", report())
