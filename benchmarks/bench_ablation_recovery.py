"""Experiment A7 — durability cost and recovery latency (§4.3 + ROADMAP).

The WAL used to pay a file open-append-close per mutating statement.
This ablation measures what the persistent-handle + group-commit rewrite
buys, and what recovery costs:

- **append modes** — ``reopen`` (the per-statement open the WAL started
  with; the baseline is :class:`ReopenPerStatementLog` below — ablation
  baselines live in ``benchmarks/``, never as switches on production
  classes), ``flush=1`` (persistent handle, one group commit per
  statement), ``flush=64`` / ``flush=1024`` (real group commit), and
  ``fsync`` (every flush forced to stable storage);
- **recovery latency** — image restore + WAL replay as a function of how
  many statements crashed outside the last checkpoint;
- **WAL amplification** — log bytes per statement payload byte, and the
  replay-regression guarantee: recovery leaves the log byte-identical
  (the pre-fix behaviour doubled it every crash).

Standalone report:  python benchmarks/bench_ablation_recovery.py
"""

import os
import sys
import time

import pytest

from repro.db import Database
from repro.db.recovery import recover
from repro.db.storage import WriteAheadLog, checkpoint, save_database

STATEMENTS = 10_000  # the report workload
BENCH_STATEMENTS = 1_000  # per pytest-benchmark round

SQL = "INSERT INTO genes VALUES (?, ?, ?)"


def _parameter_rows(count):
    return [
        (index, f"gene{index:06d}", "ACGT" * 8)
        for index in range(count)
    ]


def _fresh_db():
    database = Database()
    database.execute(
        "CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT, seq TEXT)"
    )
    return database


class ReopenPerStatementLog:
    """The A7 baseline: an open-append-close per statement.

    What the WAL did before it kept a persistent handle, rebuilt from
    the public API: closing the real log after every append makes the
    next one reopen the file, so the bytes written are identical and
    only the per-statement open/close is added."""

    def __init__(self, path, database):
        self._log = WriteAheadLog(path, database)

    def append(self, sql, parameters):
        self._log.append(sql, parameters)
        self._log.close()

    def close(self):
        self._log.close()


def _append_workload(path, rows, open_log=WriteAheadLog, **wal_options):
    """Append *rows* through one log: a WriteAheadLog configured by
    options, or the reopen-per-statement baseline."""
    database = _fresh_db()
    if os.path.exists(path):
        os.remove(path)
    log = open_log(path, database, **wal_options)
    for row in rows:
        log.append(SQL, row)
    log.close()


@pytest.fixture(scope="module")
def rows():
    return _parameter_rows(BENCH_STATEMENTS)


@pytest.mark.benchmark(group="a7-append")
def test_bench_append_reopen_per_statement(benchmark, rows, tmp_path):
    path = str(tmp_path / "wal.jsonl")
    benchmark(_append_workload, path, rows, ReopenPerStatementLog)


@pytest.mark.benchmark(group="a7-append")
def test_bench_append_flush_every_statement(benchmark, rows, tmp_path):
    path = str(tmp_path / "wal.jsonl")
    benchmark(_append_workload, path, rows, flush_every_n=1)


@pytest.mark.benchmark(group="a7-append")
def test_bench_append_group_commit(benchmark, rows, tmp_path):
    path = str(tmp_path / "wal.jsonl")
    benchmark(_append_workload, path, rows, flush_every_n=256)


@pytest.mark.benchmark(group="a7-recover")
def test_bench_recover_10k_statement_log(benchmark, tmp_path):
    image = str(tmp_path / "image.json")
    wal_path = str(tmp_path / "wal.jsonl")
    database = _fresh_db()
    save_database(database, image)
    log = WriteAheadLog(wal_path, database, flush_every_n=256)
    log.attach()
    database.executemany(SQL, _parameter_rows(2_000))
    log.close()

    def run_recovery():
        return recover(image, wal_path)[1]

    report = benchmark(run_recovery)
    assert report.statements_applied == 2_000


class TestA7Shape:
    def test_group_commit_beats_reopen_per_statement(self, tmp_path):
        rows = _parameter_rows(3_000)

        def timed(**options):
            path = str(tmp_path / "shape.jsonl")
            start = time.perf_counter()
            _append_workload(path, rows, **options)
            return time.perf_counter() - start

        timed(flush_every_n=256)  # warm caches fairly
        reopen = timed(open_log=ReopenPerStatementLog)
        grouped = timed(flush_every_n=256)
        assert grouped < reopen, (
            f"group commit {grouped:.4f}s not faster than "
            f"per-statement reopen {reopen:.4f}s"
        )

    def test_recovery_does_not_amplify_the_log(self, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        database = _fresh_db()
        save_database(database, image)
        log = WriteAheadLog(wal_path, database, flush_every_n=64)
        log.attach()
        database.executemany(SQL, _parameter_rows(500))
        log.close()
        size = os.path.getsize(wal_path)
        for __ in range(2):
            recovered, report = recover(image, wal_path)
            assert report.statements_applied == 500
            assert os.path.getsize(wal_path) == size

    def test_checkpoint_resets_recovery_cost(self, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        database = _fresh_db()
        log = WriteAheadLog(wal_path, database, flush_every_n=64)
        log.attach()
        database.executemany(SQL, _parameter_rows(500))
        checkpoint(database, image, log)
        __, report = recover(image, wal_path)
        assert report.statements_applied == 0


def report() -> dict:
    results = {"statements": STATEMENTS, "append_modes": [],
               "recovery": []}
    rows = _parameter_rows(STATEMENTS)
    payload_bytes = sum(len(SQL) + sum(len(str(v)) for v in row)
                        for row in rows)
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        wal_path = os.path.join(workdir, "wal.jsonl")

        print(f"A7: WAL durability ablation, {STATEMENTS:,} statements")
        print()
        print(f"{'append mode':<22} {'seconds':>9} {'stmts/s':>11} "
              f"{'wal bytes':>11} {'amplification':>14}")
        print("-" * 72)

        modes = [
            ("reopen per statement",
             dict(open_log=ReopenPerStatementLog)),
            ("flush every statement", dict(flush_every_n=1)),
            ("group commit n=64", dict(flush_every_n=64)),
            ("group commit n=1024", dict(flush_every_n=1024)),
            ("fsync every n=1024", dict(flush_every_n=1024, fsync=True)),
        ]
        for label, options in modes:
            start = time.perf_counter()
            _append_workload(wal_path, rows, **options)
            elapsed = time.perf_counter() - start
            size = os.path.getsize(wal_path)
            results["append_modes"].append({
                "mode": label,
                "seconds": elapsed,
                "statements_per_second": STATEMENTS / elapsed,
                "wal_bytes": size,
                "amplification": size / payload_bytes,
            })
            print(f"{label:<22} {elapsed:>9.3f} "
                  f"{STATEMENTS / elapsed:>11,.0f} {size:>11,} "
                  f"{size / payload_bytes:>14.2f}x")

        # Recovery latency vs. crash distance from the last checkpoint.
        print()
        print(f"{'crashed statements':>19} {'recover ms':>11} "
              f"{'stmts/s':>11} {'log after replay':>17}")
        print("-" * 64)
        image = os.path.join(workdir, "image.json")
        for crashed in (100, 1_000, 10_000):
            if os.path.exists(wal_path):
                os.remove(wal_path)
            database = _fresh_db()
            save_database(database, image)
            log = WriteAheadLog(wal_path, database, flush_every_n=1024)
            log.attach()
            database.executemany(SQL, _parameter_rows(crashed))
            log.close()
            before = os.path.getsize(wal_path)
            start = time.perf_counter()
            __, rec = recover(image, wal_path)
            elapsed = time.perf_counter() - start
            after = os.path.getsize(wal_path)
            unchanged = "unchanged" if before == after else "GREW!"
            results["recovery"].append({
                "crashed_statements": crashed,
                "recover_ms": elapsed * 1000,
                "statements_per_second":
                    rec.statements_applied / elapsed,
                "log_unchanged": before == after,
            })
            print(f"{crashed:>19,} {elapsed * 1000:>11.1f} "
                  f"{rec.statements_applied / elapsed:>11,.0f} "
                  f"{unchanged:>17}")
    return results


if __name__ == "__main__":
    from conftest import write_bench_json

    write_bench_json("ablation_recovery", report())
    sys.exit(0)
