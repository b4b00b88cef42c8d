"""Integrity scrub: walk images and WAL segments, verify every checksum.

Recovery (:mod:`repro.db.recovery`) verifies files when it *reads* them
— but a warehouse that checkpoints regularly may not read a sealed
segment for days, and bit rot found at recovery time is found at the
worst possible moment.  The scrubber is the proactive half of the
integrity story: walk everything on disk, recompute every CRC32 and
image digest, and report damage **localized** (file, record index, byte
offset) while the primary is still healthy enough to repair from.

Replay and scrub read WAL files through the same classifier
(:func:`repro.db.storage.classify_wal`), so they agree on every line by
construction.  Replay aborts at the first damaged one (replaying around
a hole would diverge); the scrubber collects them all, so one pass maps
*all* the damage.

Verdicts, per file — the worst thing found in it:

- ``ok``              — every line parsed and every checksum matched;
- ``torn_tail``       — unparseable final record.  On the **active**
  segment this is an ordinary crash artifact (recovery drops it) and
  does not damage the report; on a **sealed** segment it is damage;
- ``malformed``       — structurally wrong record or image, or a file
  in a format version this build does not read;
- ``corrupt_middle``  — unparseable record followed by other records;
- ``bit_rot``         — a line whose CRC32 is wrong or missing, or
  whose bytes no longer decode;
- ``digest_mismatch`` — an image whose whole-file digest changed;
- ``unreadable``      — the file cannot be opened (a path the operator
  named that does not exist included).

``python -m repro scrub --image X --wal Y`` prints the report;
``--self-test`` runs the corruption matrix, schedules of the
replication driver (:mod:`repro.sim.matrix`) that damage a primary's
files and hold scrub and recovery to one verdict.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.db.storage import (
    BIT_ROT,
    CORRUPT_MIDDLE,
    HEADER,
    MALFORMED,
    OK,
    TORN_TAIL,
    classify_wal,
    list_sealed_segments,
    read_image,
)
from repro.errors import StorageError
from repro.obs.metrics import count as _metric, observe as _observe
from repro.obs.trace import span as _span

DIGEST_MISMATCH = "digest_mismatch"
UNREADABLE = "unreadable"

#: Severity order: a file's verdict is the worst thing found in it.
_SEVERITY = (OK, TORN_TAIL, MALFORMED, CORRUPT_MIDDLE, BIT_ROT,
             DIGEST_MISMATCH, UNREADABLE)
_RANK = {verdict: rank for rank, verdict in enumerate(_SEVERITY)}


def _worse(current: str, candidate: str) -> str:
    return candidate if _RANK[candidate] > _RANK[current] else current


@dataclass
class FileVerdict:
    """One scanned file: what it is, what was found, and where."""

    path: str
    kind: str                     # "image" | "wal_active" | "wal_sealed"
    verdict: str = OK
    records_checked: int = 0
    bad_offsets: list = field(default_factory=list)  # (record_index, offset)
    detail: str = ""

    @property
    def damaged(self) -> bool:
        """True when this verdict means data loss or rot — a torn tail
        on the *active* segment is a crash artifact, not damage."""
        if self.verdict == TORN_TAIL:
            return self.kind != "wal_active"
        return self.verdict != OK

    def line(self) -> str:
        status = "BAD " if self.damaged else "ok  "
        where = ""
        if self.bad_offsets:
            spots = ", ".join(f"#{index}@{offset}B"
                              for index, offset in self.bad_offsets[:3])
            if len(self.bad_offsets) > 3:
                spots += f", … ({len(self.bad_offsets)} total)"
            where = f"  [{spots}]"
        name = os.path.basename(self.path)
        return (f"  {status} {name:<24} {self.kind:<10} "
                f"{self.verdict:<15} {self.records_checked:>5} checked"
                f"{where}  {self.detail}")


@dataclass
class ScrubReport:
    """Everything one scrub pass found."""

    verdicts: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def files_scanned(self) -> int:
        return len(self.verdicts)

    @property
    def records_verified(self) -> int:
        return sum(verdict.records_checked for verdict in self.verdicts)

    @property
    def damaged(self) -> "list[FileVerdict]":
        return [verdict for verdict in self.verdicts if verdict.damaged]

    @property
    def ok(self) -> bool:
        return not self.damaged

    def summary(self) -> str:
        state = ("clean" if self.ok
                 else f"{len(self.damaged)} damaged file(s)")
        return (f"{self.files_scanned} files, "
                f"{self.records_verified} records verified, {state}, "
                f"{self.elapsed_ms:.1f} ms")


def scrub_wal_file(path: str, *, active: bool = False) -> FileVerdict:
    """Scan one WAL file end to end, localizing every bad record.

    Keeps going past damage (unlike replay) so a single pass reports
    all of it: each entry in ``bad_offsets`` is ``(record_index,
    byte_offset)`` of a line replay would refuse.
    """
    result = FileVerdict(path, "wal_active" if active else "wal_sealed")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        result.verdict = UNREADABLE
        result.detail = str(exc)
        return result
    for index, offset, kind, __, why in classify_wal(data):
        if kind in (OK, HEADER):
            result.records_checked += 1
            continue
        if not result.bad_offsets:
            result.detail = f"#{index} {why}"[:100]
        result.bad_offsets.append((index, offset))
        result.verdict = _worse(result.verdict, kind)
    if result.verdict == TORN_TAIL and active:
        result.detail = "crash artifact; recovery drops it"
    return result


def scrub_image(path: str) -> FileVerdict:
    """Verify one image's format, whole-file digest and shape."""
    result = FileVerdict(path, "image")
    try:
        image = read_image(path)
    except StorageError as exc:
        # read_image reports a file it could not open as ``malformed``
        # with the OSError chained; scrub names that case precisely.
        result.verdict = (UNREADABLE if isinstance(exc.__cause__, OSError)
                          else exc.kind if exc.kind in _RANK else MALFORMED)
        result.detail = str(exc).splitlines()[0][:100]
        return result
    result.records_checked = 1
    result.detail = f"digest {image['digest'][:12]}…"
    return result


def scrub(image_path: "str | None" = None,
          wal_path: "str | None" = None) -> ScrubReport:
    """Walk an image plus a WAL's sealed segments and active file,
    verifying every checksum; returns the localized verdicts.

    Every path given is accounted for: one that cannot be opened —
    a missing image, a WAL with neither an active file nor sealed
    segments — is listed as ``unreadable``, never silently skipped.
    """
    report = ScrubReport()
    started = time.perf_counter()
    with _span("storage.scrub") as spn:
        if image_path:
            report.verdicts.append(scrub_image(image_path))
        if wal_path:
            sealed = list_sealed_segments(wal_path)
            for __, path in sealed:
                report.verdicts.append(scrub_wal_file(path, active=False))
            # Sealed segments without an active file is what a crash
            # between sealing and reopening leaves; nothing at all is
            # a wrong path.
            if os.path.exists(wal_path) or not sealed:
                report.verdicts.append(scrub_wal_file(wal_path,
                                                      active=True))
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
        _metric("scrub", "runs")
        _metric("scrub", "files_scanned", report.files_scanned)
        _metric("scrub", "records_verified", report.records_verified)
        _metric("scrub", "damaged_files", len(report.damaged))
        _observe("scrub", "scrub_ms", report.elapsed_ms)
        spn.annotate(files=report.files_scanned,
                     records=report.records_verified,
                     damaged=len(report.damaged))
    return report
