"""Experiment A13 — what does end-to-end integrity cost, per record?

Every WAL line carries a CRC32 and every image a SHA-256 digest
(``repro.db.storage``).  The contract is "near-free on the paths that
matter": the CRC is computed over the already-built serialization (one
``zlib.crc32`` call and a string splice per append) and verified over
the bytes as written on every replay.  There is no unchecksummed format
to compare against — checksums are not optional — so this ablation
prices the checksum work *itself*, in absolute microseconds per record,
which is also the steadier ruler: a ratio against the execute path moved
6× the day statement caching made execution cheaper, while the CRC cost
never changed.

- **write side (gated)** — ``checksum_line`` over N serialized record
  bodies: exactly what ``WriteAheadLog.append`` adds to ``json.dumps``;
- **replay side (gated)** — ``classify_wal`` over those N lines minus a
  bare ``json.loads`` per line: everything the single WAL classifier
  does beyond parsing (CRC verify, shape checks, offset bookkeeping);
- **context (reported)** — raw append, execute+append and recover in
  µs per statement, so the reader sees what share the gated costs are;
- **scrub throughput** — records per second for a full offline
  verification pass (:mod:`repro.db.scrub`);
- **re-shipped active segment (gated)** — WAL lines a follower
  classifies per record it newly applies while one active segment grows
  by M records per ship up to N: a follower verifies only bytes it has
  not verified (≈ 1), beside the same follower made to forget its
  verified prefix before every apply — a whole parse per ship
  (≈ N / 2M).  A count, not a timing.

Timings are real ``time.perf_counter`` seconds, min across repeats, the
two sides of each difference interleaved.  The CI smoke gate
(``--check``) fails when either gated cost exceeds its budget; the
budgets are ≥ 2× the worst of ten calibration runs (EXPERIMENTS.md A13).
The re-ship count is deterministic and gated at ``MAX_RESHIP_LINES``.

Standalone report:  python benchmarks/bench_ablation_integrity.py [--quick]
CI gate:            python benchmarks/bench_ablation_integrity.py --quick --check
"""

import json
import os
import sys
import tempfile
import time

from repro.db import Database, storage
from repro.db.recovery import recover
from repro.db.scrub import scrub
from repro.db.storage import (
    OK,
    WriteAheadLog,
    checksum_line,
    classify_wal,
    read_wal_records,
    save_database,
)
from repro.federation import FollowerNode, disk_shipments
from repro.sources import VirtualClock

STATEMENTS = 4_000
REPEATS = 5
#: Records per ship in the re-shipped segment row.
RESHIP_STEP = 40

#: The CI smoke gates, in microseconds per record.  Calibrated from ten
#: consecutive ``--quick`` runs on the reference box (write 0.41–0.49,
#: replay 0.91–1.21) with at least 2× headroom over the worst of them.
MAX_WRITE_US = 1.5
MAX_REPLAY_US = 3.0
#: Lines classified per newly applied record when a grown segment is
#: re-shipped: each line once, plus the header.
MAX_RESHIP_LINES = 1.1

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


def _record_bodies(rows):
    """The serialized records ``append`` would checksum, CRC not yet on."""
    return [json.dumps({"sql": SQL, "params": list(row)}) for row in rows]


def _execute_workload(workdir, rows):
    """The end-to-end write path: SQL engine + attached WAL."""
    database = _fresh_db()
    path = os.path.join(workdir, "wal.jsonl")
    log = WriteAheadLog(path, database, flush_every_n=64)
    log.attach()
    for row in rows:
        database.execute(SQL, list(row))
    log.close()
    return path


def _raw_append_workload(workdir, rows):
    """The WAL sink alone — the checksum's largest possible share."""
    database = _fresh_db()
    path = os.path.join(workdir, "wal.jsonl")
    log = WriteAheadLog(path, database, flush_every_n=64)
    for row in rows:
        log.append(SQL, row)
    log.close()
    return path


def _build_crashed_state(workdir, rows):
    """An image plus a WAL holding *rows*, as a crash would leave them."""
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    database = _fresh_db()
    save_database(database, image)
    log = WriteAheadLog(wal_path, database, flush_every_n=1024)
    log.attach()
    database.executemany(SQL, rows)
    log.close()
    return image, wal_path


def _best(function, repeats):
    """Min wall seconds of *function* over *repeats* (after a warm-up)."""
    best = float("inf")
    for round_index in range(repeats + 1):
        start = time.perf_counter()
        function()
        elapsed = time.perf_counter() - start
        if round_index:
            best = min(best, elapsed)
    return best


def measure_write_side(rows, repeats=REPEATS):
    """µs per record ``checksum_line`` adds to an append."""
    bodies = _record_bodies(rows)

    def stamp():
        for body in bodies:
            checksum_line(body)

    return _best(stamp, repeats * 3) / len(bodies) * 1e6


def measure_replay_side(rows, repeats=REPEATS):
    """µs per line of classification: the whole classifier, a bare
    parse of the same lines, and the difference (the gated figure).
    The two loops interleave so a slow phase of the box hits both."""
    lines = [checksum_line(body).encode("utf-8")
             for body in _record_bodies(rows)]
    data = b"\n".join(lines) + b"\n"
    loads = json.loads

    def classify():
        for __ in classify_wal(data):
            pass

    def parse_only():
        for line in data.split(b"\n"):
            if line:
                loads(line.decode("utf-8"))

    best = {"classify": float("inf"), "parse": float("inf")}
    for round_index in range(repeats * 3 + 1):
        for key, function in (("classify", classify),
                              ("parse", parse_only)):
            start = time.perf_counter()
            function()
            elapsed = time.perf_counter() - start
            if round_index:
                best[key] = min(best[key], elapsed)
    per_line = {key: value / len(lines) * 1e6
                for key, value in best.items()}
    return {"classify_us": per_line["classify"],
            "parse_only_us": per_line["parse"],
            "verify_us": per_line["classify"] - per_line["parse"]}


def measure_context(rows, repeats=REPEATS):
    """The surfaces callers actually pay, µs per statement."""
    def in_tempdir(workload):
        def run():
            with tempfile.TemporaryDirectory() as workdir:
                workload(workdir, rows)
        return run

    context = {
        "execute_append_us": _best(in_tempdir(_execute_workload), repeats),
        "raw_append_us": _best(in_tempdir(_raw_append_workload), repeats),
    }
    with tempfile.TemporaryDirectory() as workdir:
        image, wal_path = _build_crashed_state(workdir, rows)

        def run_recover():
            __, report_ = recover(image, wal_path)
            assert report_.statements_applied == len(rows)

        context["recover_us"] = _best(run_recover, repeats)
    return {key: value / len(rows) * 1e6 for key, value in context.items()}


def measure_scrub(rows):
    """Offline verification throughput over a checkpoint + WAL."""
    with tempfile.TemporaryDirectory() as workdir:
        image, wal_path = _build_crashed_state(workdir, rows)
        best = float("inf")
        records = 0
        for __ in range(3):
            report_ = scrub(image, wal_path)
            assert report_.ok
            best = min(best, report_.elapsed_ms)
            records = report_.records_verified
    return {"records": records, "ms": best,
            "records_per_second": records / (best / 1000.0)}


def _count_classified(function):
    """``function()`` and how many lines ``storage.classify_wal``
    classified while it ran."""
    counted = 0
    original = storage.classify_wal

    def counting(*args):
        nonlocal counted
        for item in original(*args):
            counted += 1
            yield item

    storage.classify_wal = counting
    try:
        return function(), counted
    finally:
        storage.classify_wal = original


def measure_reship(rows, step=RESHIP_STEP):
    """Lines the follower classifies per newly applied record while one
    active segment grows by *step* records per ship: as it is
    (``resume``) and made to forget its verified prefix before every
    apply (``whole``)."""
    lines_per_record = {}
    for label in ("resume", "whole"):
        applied = lines = 0
        with tempfile.TemporaryDirectory() as workdir:
            database = _fresh_db()
            log = WriteAheadLog(os.path.join(workdir, "wal.jsonl"),
                                database, flush_every_n=step)
            log.attach()
            follower = FollowerNode(
                "replica", os.path.join(workdir, "replica"), _fresh_db(),
                timeline=VirtualClock())
            for start in range(0, len(rows), step):
                database.executemany(SQL, rows[start:start + step])
                log.flush()
                for shipment in disk_shipments(log.path):
                    if label == "whole":
                        follower._verified.clear()
                    new, classified = _count_classified(
                        lambda: follower.apply_shipment(shipment))
                    applied += new
                    lines += classified
            log.close()
        assert applied == len(rows)
        lines_per_record[label] = lines / applied
    return {"records": len(rows), "step": step,
            "lines_per_record": lines_per_record}


class TestA13Shape:
    """Cheap structural checks (the timings themselves are reported)."""

    def test_wal_records_all_carry_crc(self, tmp_path):
        path = _execute_workload(str(tmp_path), _parameter_rows(20))
        records, __ = read_wal_records(path)
        assert len(records) == 20
        assert all(isinstance(record.get("crc"), int)
                   for record in records)

    def test_the_timed_lines_are_what_the_wal_writes(self, tmp_path):
        rows = _parameter_rows(20)
        path = _raw_append_workload(str(tmp_path), rows)
        with open(path, encoding="utf-8") as handle:
            written = handle.read().splitlines()[1:]     # minus header
        stamped = [checksum_line(body) for body in _record_bodies(rows)]
        assert stamped == written
        kinds = [kind for __, __, kind, __, __
                 in classify_wal("\n".join(stamped).encode("utf-8"))]
        assert kinds == [OK] * 20

    def test_recover_applies_the_benchmark_state(self, tmp_path):
        image, wal_path = _build_crashed_state(str(tmp_path),
                                               _parameter_rows(50))
        recovered, report_ = recover(image, wal_path)
        assert report_.statements_applied == 50
        assert recovered.query("SELECT count(*) FROM genes").scalar() == 50

    def test_scrub_verifies_the_benchmark_state(self, tmp_path):
        image, wal_path = _build_crashed_state(
            str(tmp_path), _parameter_rows(30))
        report_ = scrub(image, wal_path)
        assert report_.ok and report_.records_verified >= 30


def report(statements=STATEMENTS, repeats=REPEATS) -> dict:
    rows = _parameter_rows(statements)
    print(f"A13: integrity checksum cost per record, {statements:,} "
          f"records (min of repeated rounds)")
    print()
    write_us = measure_write_side(rows, repeats)
    replay = measure_replay_side(rows, repeats)
    context = measure_context(rows, repeats)
    scrub_stats = measure_scrub(rows)
    reship = measure_reship(rows)

    print(f"{'gated cost':<34} {'us/record':>10} {'budget':>8}")
    print("-" * 54)
    print(f"{'write: checksum_line':<34} {write_us:>10.2f} "
          f"{MAX_WRITE_US:>8.2f}")
    print(f"{'replay: classify - bare parse':<34} "
          f"{replay['verify_us']:>10.2f} {MAX_REPLAY_US:>8.2f}")
    print(f"  (classify {replay['classify_us']:.2f}, bare parse "
          f"{replay['parse_only_us']:.2f})")
    print()
    print(f"{'context (reported)':<34} {'us/stmt':>10}")
    print("-" * 54)
    for label, key in (("raw append", "raw_append_us"),
                       ("execute+append", "execute_append_us"),
                       ("recover", "recover_us")):
        print(f"{label:<34} {context[key]:>10.2f}")
    print(f"\nscrub: {scrub_stats['records']} records verified in "
          f"{scrub_stats['ms']:.1f} ms "
          f"({scrub_stats['records_per_second']:,.0f} records/s)")
    per_record = reship["lines_per_record"]
    print(f"\nre-shipped active segment ({statements:,} records, "
          f"{reship['step']} per ship), lines classified per applied "
          f"record:")
    print(f"  {'follower (verified prefix)':<32} {per_record['resume']:>8.3f}"
          f"  (budget {MAX_RESHIP_LINES:.2f})")
    print(f"  {'whole parse per ship':<32} {per_record['whole']:>8.3f}")
    return {
        "statements": statements,
        "repeats": repeats,
        "write_us_per_record": write_us,
        "replay": replay,
        "context": context,
        "scrub": scrub_stats,
        "reship": reship,
        "budget_us": {"write": MAX_WRITE_US, "replay": MAX_REPLAY_US},
        "budget_reship_lines": MAX_RESHIP_LINES,
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    quick = "--quick" in sys.argv
    payload = report(statements=800 if quick else STATEMENTS,
                     repeats=3 if quick else REPEATS)
    if "--check" not in sys.argv:     # a gate compares, it writes nothing
        write_bench_json("ablation_integrity", payload)
    else:
        failures = []
        if payload["write_us_per_record"] > MAX_WRITE_US:
            failures.append(
                f"checksum_line costs "
                f"{payload['write_us_per_record']:.2f} us/record "
                f"(budget {MAX_WRITE_US:.2f})")
        if payload["replay"]["verify_us"] > MAX_REPLAY_US:
            failures.append(
                f"classification beyond parsing costs "
                f"{payload['replay']['verify_us']:.2f} us/record "
                f"(budget {MAX_REPLAY_US:.2f})")
        reshipped = payload["reship"]["lines_per_record"]["resume"]
        if reshipped > MAX_RESHIP_LINES:
            failures.append(
                f"a re-shipped segment classifies {reshipped:.3f} lines "
                f"per applied record (budget {MAX_RESHIP_LINES:.2f})")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            sys.exit(1)
        print("PASS: checksum cost per record within budget on the "
              "write and replay sides; re-shipped segments verify each "
              "line once")
    sys.exit(0)
