"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import main
from tests.obs.jsonl import load_traces


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "MAIVR" in output
        assert "contains" in output

    def test_matrix_runs_and_reproduces(self, capsys):
        assert main(["matrix"]) == 0
        output = capsys.readouterr().out
        assert "GenAlg+UDB" in output
        assert "Table 1 reproduced: True" in output

    def test_quality_runs(self, capsys):
        assert main(["quality"]) == 0
        output = capsys.readouterr().out
        assert "warehouse" in output
        assert "%" in output

    def test_recover_self_test_runs(self, capsys):
        assert main(["recover", "--self-test"]) == 0
        output = capsys.readouterr().out
        assert "scenarios recovered correctly" in output
        assert "FAIL" not in output

    def test_recover_restores_image_and_wal(self, capsys, tmp_path):
        from repro.db import Database
        from repro.db.storage import WriteAheadLog, save_database

        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        image = str(tmp_path / "image.json")
        save_database(database, image)
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"), database)
        wal.attach()
        database.execute("INSERT INTO t VALUES (1)")
        wal.close()

        output_image = str(tmp_path / "recovered.json")
        assert main(["recover", "--image", image,
                     "--wal", str(tmp_path / "wal.jsonl"),
                     "--output", output_image]) == 0
        out = capsys.readouterr().out
        assert "statements=1" in out
        assert "t " in out and "1 rows" in out

    def test_recover_requires_wal_or_self_test(self, capsys):
        assert main(["recover"]) == 2

    def test_chaos_self_test_runs(self, capsys):
        assert main(["chaos", "--self-test"]) == 0
        output = capsys.readouterr().out
        assert "scenarios degraded and recovered correctly" in output
        assert "FAIL" not in output

    def test_chaos_self_test_accepts_concurrency(self, capsys):
        assert main(["chaos", "--self-test", "--concurrency", "1"]) == 0
        output = capsys.readouterr().out
        assert "width 1" in output
        assert "FAIL" not in output

    def test_chaos_rejects_zero_concurrency(self, capsys):
        assert main(["chaos", "--self-test", "--concurrency", "0"]) == 2
        assert "--concurrency" in capsys.readouterr().err

    def test_chaos_requires_self_test(self, capsys):
        assert main(["chaos"]) == 2

    def test_chaos_only_runs_a_single_scenario(self, capsys):
        assert main(["chaos", "--self-test",
                     "--only", "bit-rot-repair"]) == 0
        output = capsys.readouterr().out
        assert "1/1 scenarios" in output
        assert "FAIL" not in output

    def test_chaos_only_rejects_unknown_scenario(self, capsys):
        assert main(["chaos", "--self-test", "--only", "frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_scrub_self_test_runs(self, capsys):
        assert main(["scrub", "--self-test"]) == 0
        output = capsys.readouterr().out
        assert "scenarios verified correctly" in output
        assert "FAIL" not in output

    def test_scrub_requires_a_target(self, capsys):
        assert main(["scrub"]) == 2
        assert "--image" in capsys.readouterr().err

    def test_scrub_of_files_that_do_not_exist_is_not_clean(
            self, capsys, tmp_path):
        """Naming a path scrub cannot open used to print ``0 files, 0
        records verified, clean`` and exit 0."""
        assert main(["scrub", "--image", str(tmp_path / "image.json"),
                     "--wal", str(tmp_path / "wal.jsonl")]) == 1
        output = capsys.readouterr().out
        assert "clean" not in output
        assert "2 files" in output and "2 damaged file(s)" in output
        listed = [line for line in output.splitlines() if "BAD" in line]
        assert len(listed) == 2
        assert all("unreadable" in line for line in listed)
        assert "image.json" in listed[0] and "wal.jsonl" in listed[1]

    def test_recover_still_tolerates_a_missing_image(self, capsys,
                                                     tmp_path):
        from repro.db import Database
        from repro.db.storage import WriteAheadLog

        database = Database()
        wal_path = str(tmp_path / "wal.jsonl")
        log = WriteAheadLog(wal_path, database)
        log.attach()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        database.execute("INSERT INTO t VALUES (1, 'alpha')")
        log.close()
        assert main(["recover", "--image", str(tmp_path / "none.json"),
                     "--wal", wal_path]) == 0
        assert "image=no" in capsys.readouterr().out

    def test_scrub_clean_and_damaged_states(self, capsys, tmp_path):
        from repro.db import Database
        from repro.db.storage import WriteAheadLog, save_database

        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        image = str(tmp_path / "image.json")
        save_database(database, image)
        wal_path = str(tmp_path / "wal.jsonl")
        log = WriteAheadLog(wal_path, database)
        log.attach()
        database.execute("INSERT INTO t VALUES (1, 'alpha')")
        log.close()

        assert main(["scrub", "--image", image, "--wal", wal_path]) == 0
        output = capsys.readouterr().out
        assert "clean" in output and "ok" in output

        with open(wal_path) as handle:
            payload = handle.read()
        with open(wal_path, "w") as handle:
            handle.write(payload.replace("alpha", "omega"))
        assert main(["scrub", "--image", image, "--wal", wal_path]) == 1
        assert "bit_rot" in capsys.readouterr().out

    def test_trace_renders_the_federated_story(self, capsys, tmp_path):
        from repro import obs

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--jsonl", str(path)]) == 0
        output = capsys.readouterr().out
        # One trace covers the whole stack: BiQL leg, fan-out with every
        # annotation kind, fusion, and the final cache hit.
        assert "trace t000001" in output
        for expected in ("biql.parse", "sql.execute", "mediator.fan_out",
                         "status=retried", "status=skipped", "breaker=open",
                         "per-layer breakdown", "from_cache=True"):
            assert expected in output, expected
        traces = load_traces(path)
        assert list(traces) == ["t000001"]
        assert obs.get_tracer() is None         # CLI cleans up after itself

    def test_trace_accepts_a_custom_query(self, capsys):
        assert main(["trace", "COUNT genes"]) == 0
        output = capsys.readouterr().out
        assert "query=COUNT genes" in output

    def test_stats_prints_prometheus_text(self, capsys):
        from repro import obs

        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        for expected in ("# TYPE mediation_queries_answered counter",
                         "# TYPE mediation_retries counter",
                         "# TYPE cache_hits counter",
                         "# TYPE warehouse_deltas_processed counter"):
            assert expected in output, expected
        assert obs.get_registry() is None        # CLI cleans up after itself

    def test_macro_quick_reports_the_day(self, capsys):
        assert main(["macro", "--quick"]) == 0
        output = capsys.readouterr().out
        for expected in ("day-in-the-life macro workload (quick mode",
                         "phase", "peak", "priority", "interactive",
                         "goodput", "cache:", "staleness bound peaked",
                         "replica converged with the warehouse: True"):
            assert expected in output, expected

    def test_macro_seed_changes_the_day(self, capsys):
        assert main(["macro", "--quick", "--seed", "5"]) == 0
        seeded = capsys.readouterr().out
        assert main(["macro", "--quick"]) == 0
        default = capsys.readouterr().out
        assert "seed 5" in seeded
        assert seeded != default

    def test_partition_walks_the_failover_story(self, capsys):
        assert main(["partition"]) == 0
        output = capsys.readouterr().out
        for expected in ("epoch-fenced failover under a one-way partition",
                         "alpha elected under epoch 1",
                         "write refused (expired",
                         "bravo promoted under epoch 2",
                         "fences the zombie's epoch-1 shipment",
                         "acknowledged-but-lost statement(s)",
                         "CERTIFIED", "converged with bravo: True"):
            assert expected in output, expected

    def test_partition_rejects_a_lease_outliving_the_partition(
            self, capsys):
        assert main(["partition", "--lease", "10.0",
                     "--duration", "5.0"]) == 2
        assert "--duration" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
