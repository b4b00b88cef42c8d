"""Simulated external genomic repositories and their shared ground truth."""

from repro.sources.acedb import AceRepository
from repro.sources.base import (
    DELETE,
    INSERT,
    UPDATE,
    Capabilities,
    LogEntry,
    Repository,
    SourceRecord,
)
from repro.sim import FaultWindow, VirtualClock
from repro.sources.embl import EmblRepository
from repro.sources.faults import (
    GUARDED_OPERATIONS,
    FaultStats,
    FaultyRepository,
)
from repro.sources.genbank import GenBankRepository
from repro.sources.relational import RelationalRepository
from repro.sources.swissprot import SwissProtRepository
from repro.sources.trembl import TrEmblRepository
from repro.sources.universe import GeneSpec, Universe, corrupt_sequence

__all__ = [
    "Universe",
    "GeneSpec",
    "corrupt_sequence",
    "Repository",
    "SourceRecord",
    "LogEntry",
    "Capabilities",
    "INSERT",
    "UPDATE",
    "DELETE",
    "GenBankRepository",
    "EmblRepository",
    "SwissProtRepository",
    "TrEmblRepository",
    "AceRepository",
    "RelationalRepository",
    "FaultyRepository",
    "FaultStats",
    "FaultWindow",
    "VirtualClock",
    "GUARDED_OPERATIONS",
]
