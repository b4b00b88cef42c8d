"""Simulated external genomic repositories (the paper's data sources).

A :class:`Repository` is a deliberately *non-database* store — "many of
the so-called genomic databases are simply collections of flat files" —
that exposes exactly the capabilities Figure 2 classifies sources by:

- **snapshots** — every repository can dump its full contents in its
  native format (flat file, hierarchical objects, or relational rows);
- **queryable** — some allow record-level lookup;
- **logged** — some keep an inspectable change log;
- **active** — some push change notifications to subscribers.

Repositories are seeded from a shared :class:`~repro.sources.universe.Universe`
with per-source coverage and noise (so sources overlap and conflict), and
evolve through :meth:`Repository.advance`, which applies random
inserts/updates/deletes — the update stream the ETL machinery must detect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.errors import SourceError
from repro.sources.universe import GeneSpec, Universe, corrupt_sequence

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass(frozen=True)
class SourceRecord:
    """One repository entry (source-level, pre-wrapper representation);
    a value: edits build new records (:meth:`bumped`, ``replace``)."""

    accession: str
    version: int
    name: str
    organism: str
    description: str
    sequence_text: str
    exons: tuple[tuple[int, int], ...]
    timestamp: int

    def bumped(self, **changes) -> "SourceRecord":
        """A copy with *changes* applied and the version incremented."""
        return replace(self, version=self.version + 1, **changes)


@dataclass(frozen=True)
class LogEntry:
    """One change-log record: what happened to which accession, when."""

    sequence_number: int
    operation: str
    accession: str
    timestamp: int


@dataclass(frozen=True)
class Capabilities:
    """Which of Figure 2's access paths a source offers."""

    queryable: bool = False
    logged: bool = False
    active: bool = False
    # Snapshots are universal: even "non-queryable" sources provide
    # periodic off-line dumps (that is their defining trait).


#: Relative frequencies of update-stream operations.
_OPERATION_WEIGHTS = ((UPDATE, 0.6), (INSERT, 0.25), (DELETE, 0.15))


class Repository:
    """Base class of all simulated repositories."""

    #: 'flat', 'hierarchical' or 'relational' — Figure 2's ordinate.
    representation: str = "flat"
    #: True for protein databanks (SwissProt); they store the product.
    stores_protein: bool = False

    def __init__(
        self,
        name: str,
        universe: Universe,
        coverage: float = 0.6,
        seed: int = 1,
        error_rate: float = 0.0,
        capabilities: Capabilities | None = None,
    ) -> None:
        self.name = name
        self.universe = universe
        self.capabilities = capabilities or Capabilities()
        self._rng = random.Random((universe.seed, name, seed).__repr__())
        self._clock = 0
        self._log: list[LogEntry] = []
        self._subscribers: list[Callable[[LogEntry, str | None], None]] = []
        self._records: dict[str, SourceRecord] = {}
        #: accession → (record, its rendered text), see :meth:`_text_of`.
        self._texts: dict[str, tuple[SourceRecord, str]] = {}
        self.error_rate = error_rate

        initial = universe.subset(coverage, self._rng)
        self._unused = [spec for spec in universe.genes
                        if spec not in initial]
        for spec in initial:
            self._records[spec.accession] = self._record_from_spec(spec)

    # -- construction helpers ---------------------------------------------------

    def _sequence_of(self, spec: GeneSpec) -> str:
        if self.stores_protein:
            return str(spec.protein.sequence)
        return spec.sequence_text

    def _record_from_spec(self, spec: GeneSpec) -> SourceRecord:
        sequence = self._sequence_of(spec)
        if self.error_rate and self._rng.random() < self.error_rate:
            # B10: a sizeable share of repository entries are erroneous.
            sequence = corrupt_sequence(sequence, self._rng,
                                        mutations=1 + len(sequence) // 80)
        self._clock += 1
        exons = tuple((e.start, e.end) for e in spec.gene.exons)
        if self.stores_protein:
            exons = ()
        return SourceRecord(
            accession=spec.accession,
            version=1,
            name=spec.name,
            organism=spec.organism,
            description=spec.description,
            sequence_text=sequence,
            exons=exons,
            timestamp=self._clock,
        )

    # -- inspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, {len(self)} records, "
                f"clock={self._clock})")

    @property
    def clock(self) -> int:
        """The repository's logical timestamp (monotonic)."""
        return self._clock

    def accessions(self) -> tuple[str, ...]:
        return tuple(sorted(self._records))

    def record_state(self, accession: str) -> SourceRecord:
        """Direct record access for tests and ground-truth comparison."""
        try:
            return self._records[accession]
        except KeyError:
            raise SourceError(
                f"{self.name} has no record {accession!r}",
                source=self.name, operation="record_state",
            ) from None

    # -- the update stream -------------------------------------------------------------

    def _emit(self, operation: str, accession: str) -> None:
        self._clock += 1
        entry = LogEntry(
            sequence_number=len(self._log) + 1,
            operation=operation,
            accession=accession,
            timestamp=self._clock,
        )
        self._log.append(entry)
        if self.capabilities.active:
            record = self._records.get(accession)
            rendered = self._text_of(record) if record else None
            for subscriber in list(self._subscribers):
                subscriber(entry, rendered)

    def advance(self, steps: int = 1) -> list[LogEntry]:
        """Apply *steps* random mutations; returns the produced log slice."""
        start = len(self._log)
        for _ in range(steps):
            roll = self._rng.random()
            cumulative = 0.0
            operation = UPDATE
            for candidate, weight in _OPERATION_WEIGHTS:
                cumulative += weight
                if roll < cumulative:
                    operation = candidate
                    break
            if operation == INSERT and not self._unused:
                operation = UPDATE
            if operation in (UPDATE, DELETE) and not self._records:
                operation = INSERT
                if not self._unused:
                    continue

            if operation == INSERT:
                spec = self._unused.pop(
                    self._rng.randrange(len(self._unused))
                )
                self._records[spec.accession] = self._record_from_spec(spec)
                self._emit(INSERT, spec.accession)
            elif operation == UPDATE:
                accession = self._rng.choice(sorted(self._records))
                record = self._records[accession]
                if self._rng.random() < 0.7:
                    changed = record.bumped(sequence_text=corrupt_sequence(
                        record.sequence_text, self._rng, mutations=2
                    ))
                else:
                    changed = record.bumped(
                        description=record.description + " (revised)"
                    )
                self._clock += 1
                changed = replace(changed, timestamp=self._clock)
                self._records[accession] = changed
                self._emit(UPDATE, accession)
            else:
                accession = self._rng.choice(sorted(self._records))
                del self._records[accession]
                self._texts.pop(accession, None)
                self._emit(DELETE, accession)
        return self._log[start:]

    # -- Figure 2's access paths ----------------------------------------------------------

    def snapshot(self) -> str:
        """Full dump in the source's native format (always available)."""
        return self.render_snapshot(
            self._records[a] for a in sorted(self._records)
        )

    def query(self, accession: str) -> str | None:
        """Record-level lookup (queryable sources only)."""
        if not self.capabilities.queryable:
            raise SourceError(f"{self.name} is not queryable",
                              source=self.name, operation="query")
        record = self._records.get(accession)
        return self._text_of(record) if record else None

    def query_accessions(self) -> tuple[str, ...]:
        if not self.capabilities.queryable:
            raise SourceError(f"{self.name} is not queryable",
                              source=self.name, operation="query_accessions")
        return self.accessions()

    def read_log(self, since_sequence_number: int = 0) -> list[LogEntry]:
        """Inspect the change log (logged sources only)."""
        if not self.capabilities.logged:
            raise SourceError(f"{self.name} keeps no inspectable log",
                              source=self.name, operation="read_log")
        return [entry for entry in self._log
                if entry.sequence_number > since_sequence_number]

    def subscribe(
        self, callback: Callable[[LogEntry, str | None], None]
    ) -> None:
        """Register a push subscriber (active sources only)."""
        if not self.capabilities.active:
            raise SourceError(f"{self.name} offers no push notifications",
                              source=self.name, operation="subscribe")
        self._subscribers.append(callback)

    def push_channel_available(self) -> bool:
        """Whether push notifications are currently being delivered.

        Always true for a healthy active source; a fault-injection
        proxy overrides this so monitors can notice a dead channel and
        degrade to snapshot-diff polling (Figure 2's fallback ladder).
        """
        return self.capabilities.active

    # -- format rendering (subclasses) ---------------------------------------------------

    def render_record(self, record: SourceRecord) -> str:
        raise NotImplementedError

    def render_snapshot(self, records: Iterable[SourceRecord]) -> str:
        return "".join(self._text_of(record) for record in records)

    @staticmethod
    def sequence_block(sequence: str, line: str) -> str:
        """Flat-file sequence lines, 60 residues in groups of 10, laid out
        by the *line* template (``groups``, 1-based ``start`` / ``end``)."""
        lines = []
        for offset in range(0, len(sequence), 60):
            chunk = sequence[offset:offset + 60]
            groups = " ".join(chunk[at:at + 10]
                              for at in range(0, len(chunk), 10))
            lines.append(line.format(groups=groups, start=offset + 1,
                                     end=offset + len(chunk)))
        return "\n".join(lines)

    def _text_of(self, record: SourceRecord) -> str:
        """*record*'s text, rendered once per record version: a stored text
        serves only the very record it came from (a race renders twice)."""
        stored = self._texts.get(record.accession)
        if stored is None or stored[0] is not record:
            stored = (record, self.render_record(record))
            self._texts[record.accession] = stored
        return stored[1]
