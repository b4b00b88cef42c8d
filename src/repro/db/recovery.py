"""Crash recovery: image + WAL segments → the database that was running.

The durability contract (:mod:`repro.db.storage`) leaves at most three
kinds of files on disk after a crash:

- the last complete checkpoint **image** (atomic rename, so it is either
  the old one or the new one, never half of each), stamped with the WAL
  generation it covers;
- zero or more sealed WAL **segments** (``wal.jsonl.000003`` …), each
  stamped with its generation in a header record;
- the **active** WAL segment, whose final record may be torn.

:func:`recover` deterministically reassembles those pieces: restore the
image, replay every sealed segment the image does not cover in
generation order, then the active segment, dropping only a torn *final*
record.  A torn record in the middle of any file, or a malformed
record, aborts with :class:`~repro.errors.StorageError` — replaying
around a hole would silently diverge from the pre-crash database.

The bottom half of this module is a **fault-injection harness**: it
builds a reference database, kills the write path at configurable byte
offsets (torn tail, torn middle, missing image, image/WAL generation
skew, crash mid-checkpoint, unflushed group-commit window), recovers,
and asserts the result equals the reference.  ``python -m repro recover
--self-test`` runs the whole matrix; the test suite invokes it too.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.db.database import Database
from repro.db.storage import (
    WriteAheadLog,
    apply_wal_records,
    build_image,
    checkpoint,
    read_image,
    read_wal_records,
    restore_image,
    save_database,
    segment_generation,
)
from repro.errors import StorageError
from repro.obs.metrics import count as _metric, observe as _observe
from repro.obs.trace import span as _span
from repro.selftest import ScenarioMatrix, ScenarioResult, in_temp_dir


@dataclass
class RecoveryReport:
    """What :func:`recover` found and applied."""

    image_loaded: bool = False
    image_generation: int = 0
    segments_replayed: int = 0
    segments_skipped: int = 0
    statements_applied: int = 0
    torn_tail_dropped: bool = False
    skew_skipped: bool = False
    corruption_kind: "str | None" = None
    corruption_path: "str | None" = None
    elapsed_ms: float = 0.0

    def summary(self) -> str:
        pieces = [
            f"image={'yes' if self.image_loaded else 'no'}"
            f"(gen {self.image_generation})",
            f"segments replayed={self.segments_replayed}"
            f" skipped={self.segments_skipped}",
            f"statements={self.statements_applied}",
        ]
        if self.torn_tail_dropped:
            pieces.append("torn tail dropped")
        if self.skew_skipped:
            pieces.append("stale WAL skipped (generation skew)")
        if self.corruption_kind:
            pieces.append(f"ABORTED: {self.corruption_kind} in "
                          f"{self.corruption_path}")
        pieces.append(f"{self.elapsed_ms:.1f} ms")
        return ", ".join(pieces)


def recover(image_path: str, wal_path: str,
            database: Database | None = None) -> tuple[Database,
                                                       RecoveryReport]:
    """Restore ``image + WAL`` into *database* (fresh one by default).

    Pass a database with the needed UDTs/UDFs already registered, same
    as :func:`~repro.db.storage.load_database`.  A missing image is not
    an error — recovery then replays the WAL from an empty database,
    which reproduces the full state whenever the log reaches back to the
    schema DDL (generation 0).

    Corruption (a torn middle, a bit-rotted record, an image digest
    mismatch) aborts with :class:`~repro.errors.StorageError`; the
    partially-filled report rides on the exception as ``exc.report``
    with ``corruption_kind`` / ``corruption_path`` distinguishing
    torn-tail, corrupt-middle, and bit-rot damage — only a torn *tail*
    is survivable, and that one is recorded in ``torn_tail_dropped``
    on the success path instead.
    """
    report = RecoveryReport()
    started = time.perf_counter()
    database = database or Database()

    try:
        return _recover(image_path, wal_path, database, report, started)
    except StorageError as exc:
        report.corruption_kind = exc.kind or "corrupt"
        report.corruption_path = exc.path
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
        exc.report = report
        _metric("storage", "recoveries_aborted")
        raise


def _recover(image_path: str, wal_path: str, database: Database,
             report: RecoveryReport,
             started: float) -> tuple[Database, RecoveryReport]:
    with _span("storage.recover") as spn:
        if os.path.exists(image_path):
            image = read_image(image_path)
            restore_image(image, database)
            report.image_loaded = True
            report.image_generation = int(image.get("wal_generation", 0))

        log = WriteAheadLog(wal_path, database)
        replayable: list[str] = []
        for generation, path in log.sealed_segments():
            if generation < report.image_generation:
                report.segments_skipped += 1
                continue
            replayable.append(path)
        if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
            active_generation = segment_generation(wal_path)
            if active_generation is not None \
                    and active_generation < report.image_generation:
                # A stale log left over from before the checkpoint that
                # produced this image: everything in it is already applied.
                report.skew_skipped = True
            else:
                replayable.append(wal_path)

        for position, path in enumerate(replayable):
            final = position == len(replayable) - 1
            records, torn = read_wal_records(path, allow_torn_tail=final)
            report.statements_applied += apply_wal_records(records, database)
            report.segments_replayed += 1
            report.torn_tail_dropped = report.torn_tail_dropped or torn

        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
        _metric("storage", "recoveries")
        _metric("storage", "recovery_statements",
                report.statements_applied)
        _observe("storage", "recovery_ms", report.elapsed_ms)
        spn.annotate(image_loaded=report.image_loaded,
                     segments_replayed=report.segments_replayed,
                     statements=report.statements_applied)
    return database, report


# ---------------------------------------------------------------------------
# State comparison
# ---------------------------------------------------------------------------

def _canonical_image(database: Database) -> Any:
    image = build_image(database)
    image.pop("wal_generation", None)
    image["tables"].sort(key=lambda spec: spec["name"])
    for spec in image["tables"]:
        spec["rows"] = sorted(json.dumps(row) for row in spec["rows"])
    image["indexes"].sort(key=lambda spec: spec["name"])
    return image


def databases_equal(first: Database, second: Database) -> bool:
    """True when both databases hold the same schema, rows and indexes
    (row order ignored; the serialized image is the yardstick)."""
    return _canonical_image(first) == _canonical_image(second)


# ---------------------------------------------------------------------------
# Fault-injection harness
# ---------------------------------------------------------------------------

def _genomic_database() -> Database:
    from repro.adapter import install_genomics

    database = Database()
    install_genomics(database)
    return database


def _seed_statements(count: int) -> list[tuple[str, list[Any]]]:
    """A deterministic mixed workload over a UDT-bearing table."""
    from repro.core.types import DnaSequence

    statements: list[tuple[str, list[Any]]] = [
        ("CREATE TABLE genes (id INTEGER PRIMARY KEY, "
         "name TEXT, seq DNA)", []),
    ]
    bases = "ACGT"
    for index in range(count):
        text = "".join(bases[(index * 7 + offset) % 4]
                       for offset in range(12))
        statements.append((
            "INSERT INTO genes VALUES (?, ?, ?)",
            [index, f"g{index:04d}", DnaSequence(text)],
        ))
        if index and index % 5 == 0:
            statements.append((
                "UPDATE genes SET name = ? WHERE id = ?",
                [f"g{index:04d}x", index],
            ))
        if index and index % 11 == 0:
            statements.append((
                "DELETE FROM genes WHERE id = ?", [index - 1],
            ))
    return statements


def _apply(database: Database,
           statements: list[tuple[str, list[Any]]]) -> None:
    for sql, parameters in statements:
        database.execute(sql, parameters)


def _cut_tail(path: str, keep_fraction: float = 0.5) -> None:
    """Tear the final record: keep only a prefix of its bytes."""
    with open(path, "rb") as handle:
        data = handle.read()
    body = data.rstrip(b"\n")
    cut = body.rfind(b"\n") + 1
    torn = body[cut:]
    keep = max(1, int(len(torn) * keep_fraction))
    with open(path, "wb") as handle:
        handle.write(body[:cut] + torn[:keep])


def _tear_middle(path: str) -> None:
    """Tear a record that has valid records after it."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    victim = len(lines) // 2
    lines[victim] = lines[victim][: max(1, len(lines[victim]) // 3)] + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _run_torn_tail(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(30)

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image)
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements[1:])
    log.close()
    _cut_tail(wal_path)

    # The reference state: everything except the torn final statement.
    reference = _genomic_database()
    _apply(reference, statements[:-1])

    recovered, report = recover(image, wal_path,
                                database=_genomic_database())
    passed = databases_equal(recovered, reference) \
        and report.torn_tail_dropped
    return ScenarioResult("torn-final-record", passed,
                          report.summary(), report.statements_applied,
                          report.elapsed_ms)


def _run_torn_middle(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(30)

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image)
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements[1:])
    log.close()
    _tear_middle(wal_path)

    try:
        recover(image, wal_path, database=_genomic_database())
    except StorageError as exc:
        return ScenarioResult("torn-middle-record", True,
                              f"refused: {exc}")
    return ScenarioResult("torn-middle-record", False,
                          "corrupt log was replayed silently")


def _run_missing_image(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(20)

    database = _genomic_database()
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements)
    log.close()
    # No image was ever written: the WAL alone carries the history.

    reference = _genomic_database()
    _apply(reference, statements)
    recovered, report = recover(image, wal_path,
                                database=_genomic_database())
    passed = databases_equal(recovered, reference) \
        and not report.image_loaded
    return ScenarioResult("missing-image", passed, report.summary(),
                          report.statements_applied, report.elapsed_ms)


def _run_skew(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    stale_copy = os.path.join(workdir, "stale.jsonl")
    statements = _seed_statements(20)

    database = _genomic_database()
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements)
    log.close()
    with open(wal_path, "rb") as src, open(stale_copy, "wb") as dst:
        dst.write(src.read())
    checkpoint(database, image, log)
    # A stale pre-checkpoint log resurfaces (e.g. restored from backup):
    # its records are already inside the image and must NOT be replayed.
    os.replace(stale_copy, wal_path)

    reference = _genomic_database()
    _apply(reference, statements)
    recovered, report = recover(image, wal_path,
                                database=_genomic_database())
    passed = databases_equal(recovered, reference) and report.skew_skipped
    return ScenarioResult("image-wal-generation-skew", passed,
                          report.summary(), report.statements_applied,
                          report.elapsed_ms)


def _run_mid_checkpoint(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(24)
    split = len(statements) * 2 // 3

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image, wal_generation=0)
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements[1:split])
    # The checkpoint starts: the segment is sealed ... and then the
    # process dies before the new image lands.  Writers kept going.
    log.rotate()
    _apply(database, statements[split:])
    log.close()

    reference = _genomic_database()
    _apply(reference, statements)
    recovered, report = recover(image, wal_path,
                                database=_genomic_database())
    passed = databases_equal(recovered, reference) \
        and report.segments_replayed == 2
    return ScenarioResult("crash-mid-checkpoint", passed,
                          report.summary(), report.statements_applied,
                          report.elapsed_ms)


def _run_group_commit_window(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    crashed = os.path.join(workdir, "crashed.jsonl")
    statements = _seed_statements(10)

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image)
    log = WriteAheadLog(wal_path, database, flush_every_n=4)
    log.attach()
    _apply(database, statements[1:])
    # Crash without close(): only group-committed records are on disk.
    with open(wal_path, "rb") as handle:
        durable = handle.read()
    with open(crashed, "wb") as handle:
        handle.write(durable)
    log.close()

    recovered, report = recover(image, crashed,
                                database=_genomic_database())
    expected_records, _ = read_wal_records(crashed)
    reference = _genomic_database()
    _apply(reference, statements[:1])
    apply_wal_records(expected_records, reference)
    durable_count = len(expected_records)
    passed = databases_equal(recovered, reference) \
        and durable_count < len(statements) - 1 \
        and durable_count >= len(statements) - 1 - log.flush_every_n
    return ScenarioResult(
        "unflushed-group-commit", passed,
        f"{durable_count}/{len(statements) - 1} records durable; "
        + report.summary(),
        report.statements_applied, report.elapsed_ms)


def _run_replay_amplification(workdir: str) -> ScenarioResult:
    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(15)

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image)
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements[1:])
    log.close()

    target = _genomic_database()
    restore_image(read_image(image), target)
    attached = WriteAheadLog(wal_path, target)
    attached.attach()
    before = os.path.getsize(wal_path)
    first = attached.replay()
    attached.flush()
    middle = os.path.getsize(wal_path)
    # A second crash right after recovery: replay again onto a fresh
    # restore — the log must be byte-identical and the result equal.
    second_target = _genomic_database()
    restore_image(read_image(image), second_target)
    WriteAheadLog(wal_path, second_target).replay()
    after = os.path.getsize(wal_path)

    passed = before == middle == after \
        and databases_equal(target, second_target) and first > 0
    return ScenarioResult(
        "replay-does-not-grow-log", passed,
        f"log {before} -> {middle} -> {after} bytes over two recoveries",
        first)


def _run_scrub_during_recovery(workdir: str) -> ScenarioResult:
    # A crash leaves a sealed segment plus a torn active tail.  Scrub
    # must map the damage exactly (torn tail on the active file, sealed
    # segment clean), recovery must still succeed through it — and once
    # a sealed record bit-rots, both tools must agree: scrub localizes
    # the record, recovery refuses with the same structured context.
    from repro.db.scrub import BIT_ROT, TORN_TAIL, _flip_byte, scrub

    image = os.path.join(workdir, "image.json")
    wal_path = os.path.join(workdir, "wal.jsonl")
    statements = _seed_statements(24)
    split = len(statements) * 2 // 3

    database = _genomic_database()
    _apply(database, statements[:1])
    save_database(database, image, wal_generation=0)
    log = WriteAheadLog(wal_path, database)
    log.attach()
    _apply(database, statements[1:split])
    log.rotate()
    _apply(database, statements[split:])
    log.close()
    _cut_tail(wal_path)                    # crashed mid-append

    crash_report = scrub(image, wal_path)
    active = next(verdict for verdict in crash_report.verdicts
                  if verdict.kind == "wal_active")
    sealed = next(verdict for verdict in crash_report.verdicts
                  if verdict.kind == "wal_sealed")
    reference = _genomic_database()
    _apply(reference, statements[:-1])
    recovered, report = recover(image, wal_path,
                                database=_genomic_database())
    crash_ok = (crash_report.ok and active.verdict == TORN_TAIL
                and sealed.verdict == "ok"
                and databases_equal(recovered, reference)
                and report.torn_tail_dropped)

    # Now a sealed record rots: one alphanumeric byte flips in place.
    sealed_path = sealed.path
    offset = _flip_byte(sealed_path)

    rot_report = scrub(image, wal_path)
    rotted = next((verdict for verdict in rot_report.damaged
                   if verdict.path == sealed_path), None)
    try:
        recover(image, wal_path, database=_genomic_database())
    except StorageError as exc:
        rot_ok = (rotted is not None and rotted.verdict == BIT_ROT
                  and exc.kind == "bit_rot" and exc.path == sealed_path
                  and rotted.bad_offsets
                  and exc.record_index == rotted.bad_offsets[0][0]
                  and exc.offset == rotted.bad_offsets[0][1]
                  and getattr(exc, "report", None) is not None
                  and exc.report.corruption_kind == "bit_rot")
        detail = (f"torn tail scrubbed + recovered; rot at {offset}B "
                  f"-> scrub record #{exc.record_index}@{exc.offset}B, "
                  f"recovery refused in agreement")
    else:
        rot_ok = False
        detail = "bit-rotted sealed segment was replayed silently"
    return ScenarioResult("scrub-during-recovery", crash_ok and rot_ok,
                          detail, report.statements_applied,
                          report.elapsed_ms)


MATRIX = ScenarioMatrix(
    title="crash-recovery fault-injection matrix:",
    verdict="scenarios recovered correctly",
    scenarios=(
        ("torn-final-record", _run_torn_tail),
        ("torn-middle-record", _run_torn_middle),
        ("missing-image", _run_missing_image),
        ("image-wal-generation-skew", _run_skew),
        ("crash-mid-checkpoint", _run_mid_checkpoint),
        ("unflushed-group-commit", _run_group_commit_window),
        ("replay-does-not-grow-log", _run_replay_amplification),
        ("scrub-during-recovery", _run_scrub_during_recovery),
    ),
    timed=True,
)


def run_crash_matrix(workdir: str | None = None) -> list[ScenarioResult]:
    """Run every fault-injection scenario, each in a fresh directory
    (under *workdir* when given); returns one result each."""
    return MATRIX.run(functools.partial(in_temp_dir, root=workdir))


def self_test(verbose: bool = True) -> bool:
    """The ``python -m repro recover --self-test`` smoke target."""
    return MATRIX.self_test(verbose)
