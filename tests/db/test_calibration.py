"""Selectivity from ANALYZE statistics (section 6.5 cost estimation)."""

import pytest

from repro.db import Database


class TestAnalyze:
    @pytest.fixture
    def tdb(self):
        database = Database()
        database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, organism TEXT, "
            "v INTEGER)"
        )
        database.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, ["coli", "yeast"][i % 2], i % 10) for i in range(100)],
        )
        return database

    def test_analyze_collects_distinct_counts(self, tdb):
        tdb.execute("ANALYZE t")
        stats = tdb.catalog.table("t").statistics
        assert stats == {"id": 100, "organism": 2, "v": 10}

    def test_statistics_none_before_analyze(self, tdb):
        assert tdb.catalog.table("t").statistics is None

    def test_nulls_excluded(self, tdb):
        tdb.execute("INSERT INTO t VALUES (999, NULL, NULL)")
        tdb.execute("ANALYZE t")
        stats = tdb.catalog.table("t").statistics
        assert stats["organism"] == 2  # NULL is not a value

    def test_estimates_improve_after_analyze(self, tdb):
        before = tdb.explain("SELECT id FROM t WHERE organism = 'coli'")
        assert "~5 rows" in before  # 100 * default 0.05
        tdb.execute("ANALYZE t")
        after = tdb.explain("SELECT id FROM t WHERE organism = 'coli'")
        assert "~50 rows" in after  # 100 * 1/2

    def test_index_scan_estimate_uses_stats(self, tdb):
        tdb.execute("CREATE INDEX io ON t (organism) USING hash")
        tdb.execute("ANALYZE t")
        plan = tdb.explain("SELECT id FROM t WHERE organism = 'coli'")
        assert "IndexEqualScan" in plan
        assert "~50 rows" in plan

    def test_unique_column_estimates_one_row(self, tdb):
        tdb.execute("ANALYZE t")
        plan = tdb.explain("SELECT organism FROM t WHERE id = 7")
        assert "~1 rows" in plan

    def test_analyze_unknown_table(self, tdb):
        with pytest.raises(Exception):
            tdb.execute("ANALYZE nope")
