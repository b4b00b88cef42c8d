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

The crash matrix that holds it to this contract is a set of schedules
of the replication driver (:mod:`repro.sim.matrix`): each restarts a
primary through :func:`recover` after a torn tail, a torn middle, a
missing image, a crash mid-checkpoint or rot in a sealed segment, and
checks the result against the writes the primary acknowledged.
``python -m repro recover --self-test`` runs it.
"""

from __future__ import annotations

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
    read_image,
    read_wal_records,
    restore_image,
    segment_generation,
)
from repro.errors import StorageError
from repro.obs.metrics import count as _metric, observe as _observe
from repro.obs.trace import span as _span


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
