"""Snapshot differentials: keyed record-set comparison (Figure 2).

Both the relational case ("computing snapshot differentials for
relational data") and the record-granular flat-file case reduce to the
same operation: two keyed maps of record images, compared into inserted
/ deleted / updated sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.etl.wrappers.base import split_records


@dataclass(frozen=True)
class SnapshotDifferential:
    """The outcome of comparing two snapshots keyed by record id."""

    inserted: tuple[str, ...]
    deleted: tuple[str, ...]
    updated: tuple[str, ...]


def snapshot_differential(
    old: Mapping[str, str], new: Mapping[str, str]
) -> SnapshotDifferential:
    """Compare two key → record-image maps."""
    old_keys = set(old)
    new_keys = set(new)
    inserted = tuple(sorted(new_keys - old_keys))
    deleted = tuple(sorted(old_keys - new_keys))
    updated = tuple(sorted(
        key for key in old_keys & new_keys if old[key] != new[key]
    ))
    return SnapshotDifferential(inserted, deleted, updated)


def split_flat_snapshot(text: str, terminator: str = "//") -> dict[str, str]:
    """Split a flat-file dump into per-record texts keyed by accession.

    Records end with a *terminator* line (GenBank/EMBL/SwissProt all use
    ``//``) and are cut as the wrappers cut them.  The accession is taken
    from the first ``ACCESSION`` / ``AC`` line found in the record.
    """
    return {_accession_of(record_text.splitlines()): record_text
            for record_text in split_records(text, terminator)}


def _accession_of(lines: list[str]) -> str:
    """The record's accession.  A record whose accession line is garbled
    or gone is keyed by that line, or by its first line, which no parse
    confirms: monitors quarantine it and defer the dump's deletes."""
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("ACCESSION"):
            fields = stripped.split()
            return fields[1] if len(fields) > 1 else stripped
        if stripped.startswith("AC "):
            return stripped.split()[1].rstrip(";")
    return lines[0].strip()


def split_ace_snapshot(text: str) -> dict[str, str]:
    """Split an AceDB-style dump into per-object texts keyed by accession."""
    records: dict[str, str] = {}
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        accession = None
        for line in block.splitlines():
            if line.startswith("Accession"):
                accession = line.split("\t", 1)[1].strip().strip('"')
                break
        if accession is not None:
            records[accession] = block.strip() + "\n"
    return records


def split_relational_snapshot(text: str) -> dict[str, str]:
    """Split a CSV dump into per-row texts keyed by the first column."""
    records: dict[str, str] = {}
    lines = text.splitlines()
    for line in lines[1:]:  # skip the header
        if not line.strip():
            continue
        key = line.split(",", 1)[0].strip('"')
        records[key] = line + "\n"
    return records
