"""Experiment A2 — genomic index structures vs naive scans (section 6.5).

"These should support, e.g., similarity or substructure search on
nucleotide sequences."  We measure:

- substring search (``contains``): sequential scan vs k-mer index vs
  suffix-array index — expected shape: both indexes beat the scan.  Two
  tables: one spelt in ``ACGT`` only, and the same rows with one ``N``
  in a tenth of them (the warehouse's share).  For each path: rows the
  predicate re-checks per query, ms per query and index bytes
  (``tracemalloc``).  The k-mer index posts an ``N`` row under its
  spellings, so it re-checks only rows that can match; the suffix
  index keeps ambiguous rows as wildcards that every query re-checks;
- similarity search (``resembles`` substrate): BLAST-style seed-and-
  extend over a word index vs full Smith–Waterman of the query against
  every subject — expected shape: orders of magnitude apart.

Standalone report:  python benchmarks/bench_ablation_genomic_index.py
"""

import random
import re
import time
import tracemalloc

import pytest

from repro.adapter import install_genomics
from repro.core import ops
from repro.core.ops import (
    WordIndex,
    blast_search,
    naive_similarity_scan,
)
from repro.core.types import DnaSequence
from repro.db import Database

MOTIF = "ATGGCCATTGTA"
ROWS = 300
SEQ_LENGTH = 400
K = 8
#: Share of rows given one ``N`` in the ambiguous table.
N_SHARE = 0.10
KINDS = (None, "kmer", "suffix")
LABELS = {None: "seq scan", "kmer": "k-mer index", "suffix": "suffix array"}
QUERY = "SELECT id FROM frags WHERE contains(seq, ?)"


def _random_dna(rng, length):
    return "".join(rng.choice("ACGT") for __ in range(length))


def _bodies(ambiguous=False, rows=ROWS):
    """The fragments; ~5 % carry the motif.  The ambiguous table is the
    same rows with one ``N`` (from a second stream) in a tenth of them."""
    rng, marks = random.Random(99), random.Random(101)
    bodies = []
    for __ in range(rows):
        body = _random_dna(rng, SEQ_LENGTH)
        if rng.random() < 0.05:
            at = rng.randrange(SEQ_LENGTH - len(MOTIF))
            body = body[:at] + MOTIF + body[at + len(MOTIF):]
        if ambiguous and marks.random() < N_SHARE:
            at = marks.randrange(SEQ_LENGTH)
            body = body[:at] + "N" + body[at + 1:]
        bodies.append(body)
    return bodies


def _build_table(index_kind=None, ambiguous=False, rows=ROWS):
    """(database, rows ``contains`` accepts, index bytes)."""
    database = Database()
    install_genomics(database)
    database.execute(
        "CREATE TABLE frags (id INTEGER PRIMARY KEY, seq DNA)"
    )
    bodies = _bodies(ambiguous, rows)
    for row_id, body in enumerate(bodies):
        database.execute("INSERT INTO frags VALUES (?, ?)",
                         [row_id, DnaSequence(body)])
    expected = {row_id for row_id, body in enumerate(bodies)
                if ops.contains(DnaSequence(body), MOTIF)}
    index_bytes = 0
    if index_kind is not None:
        using = f"kmer WITH (k = {K})" if index_kind == "kmer" else "suffix"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            database.execute(
                f"CREATE INDEX iseq ON frags (seq) USING {using}")
            # Force the lazy suffix array build outside the timed region.
            database.query(QUERY, [MOTIF])
            index_bytes = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    return database, expected, index_bytes


def _candidates(database, index_kind):
    """Rows the ``contains`` filter re-checks for one query."""
    if index_kind is None:
        return ROWS
    index, = database.catalog.table("frags").indexes_on("seq")
    return len(index.search_contains(MOTIF))


def _wildcards(bodies):
    """Rows that break the spelling rule (two ambiguity codes closer
    than k): the k-mer index's wildcards."""
    count = 0
    for body in bodies:
        at = [match.start() for match in re.finditer("[^ACGT]", body)]
        count += any(second - first < K for first, second in zip(at, at[1:]))
    return count


@pytest.fixture(scope="module")
def tables():
    return {
        (kind, ambiguous): _build_table(kind, ambiguous)
        for kind in KINDS for ambiguous in (False, True)
    }


@pytest.mark.benchmark(group="a2-contains")
@pytest.mark.parametrize("kind", KINDS, ids=["seqscan", "kmer", "suffix"])
def test_bench_contains(benchmark, tables, kind):
    database, expected, __ = tables[kind, False]
    result = benchmark(database.query, QUERY, [MOTIF])
    assert {row[0] for row in result} == expected


class TestA2Shape:
    @pytest.mark.parametrize("ambiguous", [False, True],
                             ids=["acgt", "n10"])
    def test_all_paths_agree(self, tables, ambiguous):
        answers = {
            kind: {row[0] for row in tables[kind, ambiguous][0].query(
                QUERY, [MOTIF])}
            for kind in KINDS
        }
        expected = tables[None, ambiguous][1]
        assert answers[None] == answers["kmer"] == answers["suffix"]
        assert answers[None] == expected

    @pytest.mark.parametrize("ambiguous", [False, True],
                             ids=["acgt", "n10"])
    def test_kmer_candidates_are_matches_or_wildcards(self, tables,
                                                      ambiguous):
        database, expected, __ = tables["kmer", ambiguous]
        wildcards = _wildcards(_bodies(ambiguous))
        assert _candidates(database, "kmer") <= len(expected) + wildcards

    def test_indexes_beat_scan(self, tables):
        def timed(kind):
            database = tables[kind, False][0]
            start = time.perf_counter()
            for __ in range(3):
                database.query(QUERY, [MOTIF])
            return time.perf_counter() - start

        scan = timed(None)
        assert timed("kmer") < scan
        assert timed("suffix") < scan

    def test_plans_differ(self, tables):
        scan_db = tables[None, False][0]
        kmer_db = tables["kmer", False][0]
        assert "SeqScan" in scan_db.explain(
            "SELECT id FROM frags WHERE contains(seq, 'AAAA')"
        )
        assert "IndexContainsScan" in kmer_db.explain(
            "SELECT id FROM frags WHERE contains(seq, 'AAAAAAAA')"
        )


# -- similarity: seed-and-extend vs full Smith-Waterman ---------------------

@pytest.fixture(scope="module")
def similarity_setting():
    rng = random.Random(7)
    subjects = {
        f"s{i}": _random_dna(rng, 300) for i in range(40)
    }
    query = _random_dna(rng, 60)
    # Plant the query inside one subject so there is a true best hit.
    subjects["s0"] = subjects["s0"][:100] + query + subjects["s0"][160:]
    index = WordIndex(word_size=10)
    for name, text in subjects.items():
        index.add(name, text)
    return query, subjects, index


@pytest.mark.benchmark(group="a2-similarity")
def test_bench_blast_style(benchmark, similarity_setting):
    query, __, index = similarity_setting
    hits = benchmark(blast_search, query, index, 40.0)
    assert hits[0].subject_id == "s0"


@pytest.mark.benchmark(group="a2-similarity")
def test_bench_naive_smith_waterman(benchmark, similarity_setting):
    query, subjects, __ = similarity_setting
    ranked = benchmark(naive_similarity_scan, query, subjects)
    assert ranked[0][0] == "s0"


def report() -> dict:
    payload = {"rows": ROWS, "seq_length": SEQ_LENGTH, "motif": MOTIF,
               "k": K, "tables": []}
    print(f"A2: contains({MOTIF!r}) over {ROWS} x {SEQ_LENGTH} bp rows")
    for ambiguous in (False, True):
        bodies = _bodies(ambiguous)
        ambiguous_rows = sum("N" in body for body in bodies)
        print()
        print(f"{ambiguous_rows} rows hold an N, {_wildcards(bodies)} break "
              f"the k-mer spelling rule")
        print(f"{'access path':<14} {'re-checked':>10} {'ms/query':>9} "
              f"{'speedup':>8} {'index KiB':>10}")
        print("-" * 55)
        paths = []
        times = {}
        for kind in KINDS:
            database, expected, index_bytes = _build_table(kind, ambiguous)
            start = time.perf_counter()
            for __ in range(20):
                rows = database.query(QUERY, [MOTIF])
            times[kind] = (time.perf_counter() - start) / 20 * 1000
            assert {r[0] for r in rows} == expected
            candidates = _candidates(database, kind)
            speedup = times[None] / times[kind]
            paths.append({"path": LABELS[kind], "candidates": candidates,
                          "matches": len(expected),
                          "ms_per_query": times[kind], "speedup": speedup,
                          "index_bytes": index_bytes})
            print(f"{LABELS[kind]:<14} {candidates:>10} {times[kind]:>9.3f} "
                  f"{speedup:>7.1f}x {index_bytes / 1024:>10.0f}")
        payload["tables"].append({"ambiguous_rows": ambiguous_rows,
                                  "access_paths": paths})

    print()
    print("similarity search (40 x 300 bp subjects, 60 bp query):")
    rng = random.Random(7)
    subjects = {f"s{i}": _random_dna(rng, 300) for i in range(40)}
    query = _random_dna(rng, 60)
    subjects["s0"] = subjects["s0"][:100] + query + subjects["s0"][160:]
    index = WordIndex(word_size=10)
    for name, text in subjects.items():
        index.add(name, text)

    start = time.perf_counter()
    blast_search(query, index, min_score=40.0)
    blast_ms = (time.perf_counter() - start) * 1000
    start = time.perf_counter()
    naive_similarity_scan(query, subjects)
    naive_ms = (time.perf_counter() - start) * 1000
    print(f"{'seed-and-extend':<22} {blast_ms:>9.2f} ms")
    print(f"{'full Smith-Waterman':<22} {naive_ms:>9.2f} ms "
          f"({naive_ms / blast_ms:.0f}x slower)")
    payload["similarity"] = {"blast_ms": blast_ms, "naive_ms": naive_ms,
                             "blast_speedup": naive_ms / blast_ms}
    return payload


if __name__ == "__main__":
    from conftest import write_bench_json

    write_bench_json("ablation_genomic_index", report())
