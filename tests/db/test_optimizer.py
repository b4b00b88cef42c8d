"""Tests for plan selection: index usage, pushdown, join strategy."""

import pytest

from repro.db import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)"
    )
    database.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, i % 10, f"row{i}") for i in range(100)],
    )
    return database


class TestIndexSelection:
    def test_no_index_means_seqscan(self, db):
        assert "SeqScan" in db.explain("SELECT * FROM t WHERE k = 3")

    def test_equality_uses_hash_index(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        plan = db.explain("SELECT * FROM t WHERE k = 3")
        assert "IndexEqualScan" in plan
        assert "SeqScan" not in plan

    def test_equality_uses_btree_index(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        plan = db.explain("SELECT * FROM t WHERE k = 3")
        assert "IndexEqualScan" in plan

    def test_range_uses_btree(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        plan = db.explain("SELECT * FROM t WHERE k > 5")
        assert "IndexRangeScan" in plan

    def test_between_uses_btree(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        plan = db.explain("SELECT * FROM t WHERE k BETWEEN 2 AND 4")
        assert "IndexRangeScan" in plan

    def test_range_not_served_by_hash(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        plan = db.explain("SELECT * FROM t WHERE k > 5")
        assert "SeqScan" in plan

    def test_reversed_comparison_still_indexed(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        plan = db.explain("SELECT * FROM t WHERE 5 = k")
        assert "IndexEqualScan" in plan

    def test_residual_predicate_kept(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        plan = db.explain("SELECT * FROM t WHERE k = 3 AND id > 50")
        assert "IndexEqualScan" in plan
        assert "Filter" in plan

    def test_index_results_correct(self, db):
        without_index = db.query(
            "SELECT id FROM t WHERE k = 3 ORDER BY id"
        ).rows
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        with_index = db.query(
            "SELECT id FROM t WHERE k = 3 ORDER BY id"
        ).rows
        assert with_index == without_index

    def test_range_results_correct(self, db):
        expected = db.query(
            "SELECT id FROM t WHERE k BETWEEN 3 AND 5 ORDER BY id"
        ).rows
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        assert db.query(
            "SELECT id FROM t WHERE k BETWEEN 3 AND 5 ORDER BY id"
        ).rows == expected

    def test_index_maintained_under_dml(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        db.execute("UPDATE t SET k = 99 WHERE id = 0")
        assert db.query("SELECT id FROM t WHERE k = 99").scalar() == 0
        db.execute("DELETE FROM t WHERE id = 0")
        assert len(db.query("SELECT id FROM t WHERE k = 99")) == 0

    def test_drop_index_restores_seqscan(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        db.execute("DROP INDEX ik ON t")
        assert "SeqScan" in db.explain("SELECT * FROM t WHERE k = 3")


class TestGenomicIndexPlans:
    @pytest.fixture
    def gdb(self):
        from repro.adapter import install_genomics
        database = Database()
        install_genomics(database)
        database.execute(
            "CREATE TABLE frags (id INTEGER PRIMARY KEY, seq DNA)"
        )
        from repro.core.types import DnaSequence
        rows = [
            (1, DnaSequence("ATGGCCATTGTAATGGGCCGC")),
            (2, DnaSequence("TTTTTTTTTTTTTTTTTTTTT")),
            (3, DnaSequence("ATGGCCATTAAAAAAAAAAAA")),
        ]
        database.executemany("INSERT INTO frags VALUES (?, ?)", rows)
        return database

    def test_kmer_index_plan_and_results(self, gdb):
        expected = gdb.query(
            "SELECT id FROM frags WHERE contains(seq, 'ATGGCCATT') "
            "ORDER BY id"
        ).rows
        gdb.execute("CREATE INDEX iseq ON frags (seq) USING kmer WITH (k = 4)")
        plan = gdb.explain(
            "SELECT id FROM frags WHERE contains(seq, 'ATGGCCATT')"
        )
        assert "IndexContainsScan" in plan
        assert "Filter(contains" in plan  # predicate re-checked
        assert gdb.query(
            "SELECT id FROM frags WHERE contains(seq, 'ATGGCCATT') "
            "ORDER BY id"
        ).rows == expected == [(1,), (3,)]

    def test_suffix_index_plan_and_results(self, gdb):
        gdb.execute("CREATE INDEX iseq ON frags (seq) USING suffix")
        plan = gdb.explain(
            "SELECT id FROM frags WHERE contains(seq, 'GGCCATTGTA')"
        )
        assert "IndexContainsScan" in plan
        assert gdb.query(
            "SELECT id FROM frags WHERE contains(seq, 'GGCCATTGTA')"
        ).rows == [(1,)]

    def test_short_pattern_falls_back_to_all_rows(self, gdb):
        gdb.execute("CREATE INDEX iseq ON frags (seq) USING kmer WITH (k = 8)")
        # Pattern shorter than k: candidates = None, scan everything,
        # but results must still be correct.
        assert gdb.query(
            "SELECT id FROM frags WHERE contains(seq, 'ATG') ORDER BY id"
        ).rows == [(1,), (3,)]

    def test_ambiguous_pattern_correct_via_recheck(self, gdb):
        gdb.execute("CREATE INDEX iseq ON frags (seq) USING kmer WITH (k = 4)")
        # W = A or T; the re-check applies ambiguity matching.
        result = gdb.query(
            "SELECT id FROM frags WHERE contains(seq, 'ATGGCCATW') "
            "ORDER BY id"
        )
        assert result.rows == [(1,), (3,)]


class TestJoinStrategy:
    def test_equi_join_uses_hash(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        plan = db.explain(
            "SELECT * FROM t JOIN u ON t.id = u.t_id"
        )
        assert "HashJoin" in plan

    def test_non_equi_join_uses_nested_loop(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        plan = db.explain("SELECT * FROM t JOIN u ON t.id < u.t_id")
        assert "NestedLoopJoin" in plan

    def test_left_equi_join_uses_hash(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        plan = db.explain("SELECT * FROM t LEFT JOIN u ON t.id = u.t_id")
        assert "HashJoin[left](t.id = u.t_id)" in plan
        assert "NestedLoopJoin[left]" in db.explain(
            "SELECT * FROM t LEFT JOIN u ON t.id < u.t_id")

    def test_pushdown_below_join(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        plan = db.explain(
            "SELECT * FROM t JOIN u ON t.id = u.t_id WHERE t.k = 3"
        )
        # The filter on t must appear below the join.
        join_line = next(i for i, line in enumerate(plan.splitlines())
                         if "HashJoin" in line)
        filter_line = next(i for i, line in enumerate(plan.splitlines())
                           if "Filter" in line)
        assert filter_line > join_line

    def test_pushdown_uses_index_below_join(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        db.execute("CREATE INDEX ik ON t (k) USING hash")
        plan = db.explain(
            "SELECT * FROM t JOIN u ON t.id = u.t_id WHERE t.k = 3"
        )
        assert "IndexEqualScan" in plan

    def test_left_join_where_on_right_not_pushed(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        db.execute("INSERT INTO u VALUES (1, 0)")
        # WHERE on the right side of a LEFT JOIN filters padded rows.
        result = db.query(
            "SELECT t.id FROM t LEFT JOIN u ON t.id = u.t_id "
            "WHERE u.id = 1"
        )
        assert result.rows == [(0,)]


class TestExplain:
    def test_explain_shows_estimates(self, db):
        plan = db.explain("SELECT * FROM t")
        assert "~100 rows" in plan

    def test_estimates_survive_a_sort_a_project_and_a_limit(self, db):
        # They used to vanish above a Sort: ``(~0 rows)`` three times.
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")
        db.executemany("INSERT INTO u VALUES (?, ?)",
                       [(i, i) for i in range(40)])
        def shape(sql):
            return [line.split("(")[0].strip() + " "
                    + line.rsplit("  ", 1)[1]
                    for line in db.explain(sql).splitlines()]

        # The sort of the FROM table's rows moves under the join, whose
        # estimate the LIMIT caps.
        assert shape("SELECT t.v, u.w FROM t JOIN u ON t.k = u.id "
                     "ORDER BY t.v LIMIT 7 OFFSET 2") == [
            "Limit (~7 rows)", "Project (~100 rows)",
            "IndexJoin[inner] (~100 rows)", "Sort (~100 rows)",
            "SeqScan (~100 rows)", "SeqScan (~40 rows)"]
        assert shape("SELECT v FROM t ORDER BY k") == [
            "Project (~100 rows)", "Sort (~100 rows)", "SeqScan (~100 rows)"]
        # An unbounded sort passes its input's estimate on; a LIMIT past
        # it, or an OFFSET past everything, cannot promise more.
        assert shape("SELECT DISTINCT v FROM t ORDER BY k LIMIT 500 "
                     "OFFSET 30")[:4] == [
            "Limit (~70 rows)", "Distinct (~100 rows)",
            "Project (~100 rows)", "Sort (~100 rows)"]
        assert shape("SELECT v FROM t LIMIT 5 OFFSET 300")[0] == \
            "Limit (~0 rows)"

    def test_explain_rejects_dml(self, db):
        # ...that has no rows to find: INSERT and DDL (UPDATE and DELETE
        # are planned, see TestExplainWrites).
        import pytest as _pytest
        from repro.errors import DatabaseError
        for sql in ("INSERT INTO t VALUES (1000, 1, 'x', 'ACGT')",
                    "CREATE TABLE other (id INTEGER)", "ANALYZE t"):
            with _pytest.raises(DatabaseError,
                                match="EXPLAIN supports only SELECT"):
                db.explain(sql)
        assert not db.catalog.has_table("other")


class TestExplainWrites:
    """UPDATE and DELETE show the access path to the rows they change —
    the one a SELECT with the same WHERE reads by."""

    @staticmethod
    def _keyed(**config):
        database = Database(**config)
        database.execute("CREATE TABLE staging (skey TEXT PRIMARY KEY, "
                         "n INTEGER, note TEXT)")
        database.execute("CREATE INDEX staging_n ON staging (n) USING btree")
        for n in range(20):
            database.execute("INSERT INTO staging VALUES (?, ?, ?)",
                             [f"k{n:02d}", n, "x"])
        return database

    def test_keyed_delete_and_update_probe_the_key_index(self):
        database = self._keyed()
        plan = database.explain("DELETE FROM staging WHERE skey = ?")
        lines = plan.splitlines()
        assert lines[0].startswith("Delete(staging)  (~1 rows)")
        assert lines[1].strip().startswith(
            "IndexEqualScan(staging AS staging USING $staging_skey_key "
            "ON skey = ?; columns none)")
        plan = database.explain(
            "UPDATE staging SET note = ? WHERE skey = ? AND n > 3")
        assert [line.split("(")[0].strip() for line in plan.splitlines()] == [
            "Update", "Filter", "IndexEqualScan"]
        assert "IndexRangeScan" in database.explain(
            "UPDATE staging SET n = n + 1 WHERE n >= ?")
        # Explaining never ran anything.
        assert database.query("SELECT count(*) FROM staging").scalar() == 20

    def test_the_naive_planner_and_the_column_layout_show_their_scans(self):
        assert [line.split("(")[0].strip() for line in self._keyed(
            optimize=False).explain(
                "DELETE FROM staging WHERE skey = ? AND n > 3").splitlines()
                ] == ["Delete", "Filter", "Filter", "SeqScan"]
        columnar = self._keyed(layout="column", page_rows=4)
        assert "ColumnarScan(staging AS staging; columns note; zones on " \
            "1 bound(s))" in columnar.explain(
                "DELETE FROM staging WHERE note >= ?")
        assert "columns none" in columnar.explain("DELETE FROM staging")

    def test_analyze_refuses_to_run_a_write(self):
        import pytest as _pytest
        from repro.errors import DatabaseError
        database = self._keyed()
        for sql in ("DELETE FROM staging", "UPDATE staging SET n = 0"):
            with _pytest.raises(DatabaseError, match="would run the write"):
                database.explain(sql, analyze=True)
        assert database.query("SELECT sum(n) FROM staging").scalar() == 190

    def test_the_warehouse_facade_explains_its_own_deltas(self):
        from repro.warehouse import UnifyingDatabase
        plan = UnifyingDatabase().explain(
            "DELETE FROM public_genes WHERE accession = ?")
        assert plan.splitlines()[0].startswith("Delete(public_genes)")
        assert "IndexEqualScan(public_genes AS public_genes USING " \
            "$public_genes_accession_key ON accession = ?; columns none)" \
            in plan


class TestExplainAnalyze:
    """``explain(sql, analyze=True)`` runs the statement and prints, per
    operator, the rows and batches it actually produced beside the
    planner's estimate (first slice of ROADMAP 6a)."""

    @staticmethod
    def _actuals(database, sql, parameters=()):
        """operator name -> (rows, batches) of an analyzed plan."""
        import re
        found = {}
        for line in database.explain(sql, parameters,
                                     analyze=True).splitlines():
            match = re.match(
                r"\s*(\w+).*\(~\d+ rows; actual (\d+) rows in (\d+) "
                r"batches\)$", line)
            assert match, line
            found[match[1]] = (int(match[2]), int(match[3]))
        return found

    @pytest.fixture
    def joined(self, db):
        db.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
        db.executemany("INSERT INTO u VALUES (?, ?)",
                       [(i, i % 7) for i in range(20)])
        return db

    def test_plain_explain_is_unchanged(self, db):
        plan = db.explain("SELECT * FROM t WHERE k = 3")
        assert "actual" not in plan and "(~" in plan

    def test_seq_scan_filter_project(self, db):
        actual = self._actuals(db, "SELECT id FROM t WHERE k = ?", (3,))
        # Nothing above can stop the scan early: it reads MAX_BATCH_ROWS
        # rows from its first batch.
        assert actual["SeqScan"] == (100, 1)
        assert actual["Filter"] == (10, 1)
        assert actual["Project"] == (10, 1)

    def test_limit_stops_its_inputs(self, db):
        actual = self._actuals(db, "SELECT id FROM t LIMIT 5")
        assert actual["Limit"] == (5, 3)
        assert actual["SeqScan"] == (7, 3)      # 1 + 2 + 4 rows, no more

    def test_a_scan_nothing_can_stop_reads_one_batch(self, db):
        # Under a Sort (bounded or not), under an Aggregate and at the
        # root, the scan is drained: no batch starts at one row.
        for sql in ("SELECT v FROM t ORDER BY k",
                    "SELECT v FROM t ORDER BY k LIMIT 3",
                    "SELECT k, count(*) FROM t GROUP BY k",
                    "SELECT count(*) FROM t WHERE k > 2 LIMIT 1",
                    "SELECT v FROM t"):
            assert self._actuals(db, sql)["SeqScan"] == (100, 1), sql

    def test_an_exists_sub_select_still_stops_after_one_row(self, joined):
        sql = "SELECT id FROM t WHERE id = 5 AND EXISTS (SELECT id FROM u)"
        assert joined.query(sql).rows == [(5,)]
        (subplan,) = joined._prepare(sql).subplans.values()
        (scan,) = [node for node in subplan.walk()
                   if type(node).__name__ == "SeqScan"]
        assert (scan.rows_out, scan.batches_out) == (1, 1)

    def test_index_equal_scan(self, db):
        actual = self._actuals(db, "SELECT v FROM t WHERE id = 42")
        assert actual["IndexEqualScan"] == (1, 1)

    def test_index_range_scan(self, db):
        db.execute("CREATE INDEX ik ON t (k) USING btree")
        actual = self._actuals(db, "SELECT id FROM t WHERE k > 7")
        assert actual["IndexRangeScan"][0] == 20

    def test_index_contains_scan(self):
        from repro.adapter import install_genomics
        database = Database()
        install_genomics(database)
        database.execute("CREATE TABLE f (id INTEGER, fragment DNA)")
        database.execute("CREATE INDEX if_frag ON f (fragment) "
                         "USING kmer WITH (k = 4)")
        for index, text in enumerate(("ACGTACGT", "GGGGCCCC", "TTACGTTT")):
            database.execute("INSERT INTO f VALUES (?, dna(?))",
                             (index, text))
        actual = self._actuals(
            database, "SELECT id FROM f WHERE contains(fragment, 'ACGT')")
        assert actual["IndexContainsScan"][0] == 2
        assert actual["Filter"][0] == 2

    def test_aggregate_and_sort(self, db):
        actual = self._actuals(
            db, "SELECT k, count(*) FROM t GROUP BY k ORDER BY k DESC")
        assert actual["Aggregate"] == (10, 1)
        assert actual["Sort"] == (10, 1)

    def test_what_spilled_is_printed_beside_the_actuals(self):
        import re
        from repro.obs.metrics import disable_metrics, enable_metrics
        database = Database(layout="column", memory_budget=512, page_rows=4)
        database.execute("CREATE TABLE t (id INTEGER, k INTEGER)")
        database.executemany("INSERT INTO t VALUES (?, ?)",
                             [(i, i * 7 % 40) for i in range(40)])
        registry = enable_metrics()
        try:
            plan = database.explain(
                "SELECT k, count(*) FROM t GROUP BY k ORDER BY k DESC",
                analyze=True)
            counters = registry.snapshot()
        finally:
            disable_metrics()
        spilled = {}
        for line in plan.splitlines():
            match = re.match(r"\s*(\w+).*\(~\d+ rows; actual \d+ rows in \d+ "
                             r"batches(?:; spilled (\d+) runs, (\d+) bytes)?\)$",
                             line)
            assert match, line
            spilled[match[1]] = match[2] and (int(match[2]), int(match[3]))
        # 28 live groups (7 batches of 4 new groups, 16 B each, fit
        # beside the largest page), 12 routed to partitions; the 40
        # groups arrive at the sort as one batch, refused with nothing
        # held: a run by itself.
        assert spilled["Sort"][0] == 1 and spilled["Aggregate"][0] > 1
        assert spilled["ColumnarScan"] is spilled["Project"] is None
        assert counters["executor_spill_runs"] == (
            spilled["Sort"][0] + spilled["Aggregate"][0])
        assert counters["executor_spill_bytes"] == (
            spilled["Sort"][1] + spilled["Aggregate"][1])
        # ...and it is of the last execution: nothing spills unbudgeted.
        assert "spilled" not in Database().explain("SELECT 1", analyze=True)

    def test_distinct_and_one_row(self, db):
        assert self._actuals(db, "SELECT DISTINCT k FROM t")[
            "Distinct"][0] == 10
        assert self._actuals(db, "SELECT 1 + 1")["OneRow"] == (1, 1)

    def test_both_joins(self, joined):
        hashed = self._actuals(
            joined, "SELECT t.id FROM t JOIN u ON t.id = u.t_id")
        assert hashed["HashJoin"][0] == 20
        looped = self._actuals(
            joined, "SELECT t.id FROM t JOIN u ON t.id < u.t_id "
                    "WHERE t.id < 3")
        assert looped["NestedLoopJoin"][0] == sum(
            1 for i in range(3) for j in range(20) if i < j % 7)

    def test_columnar_scan_counts_row_groups(self):
        database = Database(layout="column", page_rows=8)
        database.execute("CREATE TABLE t (id INTEGER, k INTEGER)")
        database.executemany("INSERT INTO t VALUES (?, ?)",
                             [(i, i // 8) for i in range(36)])
        actual = self._actuals(database, "SELECT id FROM t")
        assert actual["ColumnarScan"] == (36, 5)   # 4 sealed groups + tail
        pruned = self._actuals(database, "SELECT id FROM t WHERE k = 1")
        # Zone maps skip three sealed groups; the tail has no zone map.
        assert pruned["ColumnarScan"] == (12, 2)
        assert pruned["Filter"] == (8, 1)

    def test_actuals_are_of_the_last_execution(self, db):
        sql = "SELECT id FROM t WHERE k < ?"
        assert self._actuals(db, sql, (3,))["Filter"][0] == 30
        assert self._actuals(db, sql, (1,))["Filter"][0] == 10
