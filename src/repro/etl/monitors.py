"""Source monitors: one change-detection strategy per Figure 2 cell.

"Monitoring the data sources and detecting changes to their contents.
This is done by the source monitors." (section 5.1)

Four strategies, matching the capability axis of Figure 2:

- :class:`TriggerMonitor` — *active* sources push notifications
  (database triggers, SwissProt-style alerts); zero detection cost.
- :class:`LogMonitor` — *logged* sources expose an inspectable change
  log; the monitor reads the tail and fetches the changed records.
- :class:`PollingMonitor` — *queryable* sources are polled record by
  record; successive per-record images are compared (the "edit
  sequences for successive snapshots" approach).  Changes between two
  polls coalesce — the polling-frequency trade-off of section 5.2.
- :class:`SnapshotMonitor` — *non-queryable* sources only provide
  periodic full dumps, which are split per representation and compared
  as snapshot differentials (LCS machinery underneath for flat files,
  tree diff for hierarchical ones).

Every monitor accounts its work in a :class:`MonitorCost`, which is what
the Figure 2 benchmark sweeps.

Monitors are the component closest to the unreliable sources, so
``poll()`` is written to *survive* faults rather than propagate them:

- a failed poll leaves the monitor's images and cursors untouched, so
  no delta is ever lost or double-delivered — the changes simply
  coalesce into the next successful poll (:class:`MonitorHealth` counts
  the failure);
- :class:`LogMonitor` keeps a **resumable cursor**: the log position
  only advances past an entry once its after-image has been fetched
  and accepted, so a crash mid-poll resumes exactly where it stopped;
- records that arrive corrupt are **quarantined** (kept, with a
  reason, in ``monitor.quarantine``) instead of silently dropped, and
  a dump that produced quarantines is not trusted about *absences*
  either — suspected deletes are deferred until a clean poll confirms
  them;
- when the premium channel dies (the change log stops answering, the
  push channel goes quiet), :class:`LogMonitor` and
  :class:`TriggerMonitor` **degrade to snapshot-diff polling** — the
  Figure 2 capability ladder walked downwards at run time — and resync
  without double-delivering once the channel returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SettingError, SourceError
from repro.etl.delta import DELETE, INSERT, UPDATE, Delta
from repro.etl.diff.snapshot import (
    snapshot_differential,
    split_ace_snapshot,
    split_flat_snapshot,
    split_relational_snapshot,
)
from repro.etl.wrappers import PARSE_FAILURES, wrapper_for
from repro.obs.metrics import count as _metric
from repro.obs.trace import span as _span
from repro.sources.base import LogEntry, Repository


@dataclass
class MonitorCost:
    """Work accounting for one monitor."""

    polls: int = 0
    notifications: int = 0
    records_fetched: int = 0
    bytes_scanned: int = 0
    log_entries_read: int = 0

    def total_units(self) -> int:
        """A single comparable cost figure (bytes dominate)."""
        return (self.bytes_scanned
                + 100 * self.records_fetched
                + 10 * self.log_entries_read
                + self.notifications)


@dataclass
class MonitorHealth:
    """How a monitor has coped with its source's failures."""

    failed_polls: int = 0
    degraded_polls: int = 0
    quarantined: int = 0
    last_error: str | None = None


@dataclass(frozen=True)
class QuarantinedRecord:
    """A record image the monitor refused to ingest, and why."""

    source: str
    accession: str | None
    reason: str
    text: str
    timestamp: int


@dataclass(frozen=True)
class IngestReport:
    """What one dump ingest established — and what it had to defer.

    ``deferred_deletes`` are accessions missing from a corrupt/torn dump
    whose old images were kept (the dump is not trusted about absences);
    ``corrupt`` are accessions whose new image failed validation and was
    reverted.  Both sets empty means the dump was ingested cleanly.
    """

    deferred_deletes: frozenset[str] = frozenset()
    corrupt: frozenset[str] = frozenset()

    @property
    def clean(self) -> bool:
        return not (self.deferred_deletes or self.corrupt)


_SPLITTERS = {
    "flat": split_flat_snapshot,
    "hierarchical": split_ace_snapshot,
    "relational": split_relational_snapshot,
}


class SourceMonitor:
    """Base class: detect changes in one repository since the last poll."""

    strategy: str = "abstract"

    def __init__(self, repository: Repository) -> None:
        self.repository = repository
        self.cost = MonitorCost()
        self.health = MonitorHealth()
        self.quarantine: list[QuarantinedRecord] = []
        try:
            self._wrapper = wrapper_for(repository.name)
        except SettingError:
            self._wrapper = None  # unknown format: ingest unvalidated

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.repository.name}, "
                f"{self.cost.polls} polls)")

    def poll(self) -> list[Delta]:
        """Changes since the previous poll (empty when nothing happened).

        The public entry point is concrete: it owns the poll counter,
        the ``monitor.poll`` span, and metrics publication, and
        delegates the strategy-specific work to :meth:`_poll` — so each
        subclass is instrumented identically without repeating itself.
        """
        with _span("monitor.poll", source=self.repository.name,
                   strategy=self.strategy) as spn:
            self.cost.polls += 1
            failed_before = self.health.failed_polls
            degraded_before = self.health.degraded_polls
            deltas = self._poll()
            spn.annotate(deltas=len(deltas))
            if self.health.failed_polls > failed_before:
                spn.annotate(failed=True)
            if self.health.degraded_polls > degraded_before:
                spn.annotate(degraded=True)
            _metric("monitor", "polls")
            if deltas:
                _metric("monitor", "deltas", len(deltas))
            return deltas

    def _poll(self) -> list[Delta]:
        """Strategy-specific change detection (see subclasses)."""
        raise NotImplementedError

    def quarantine_report(self) -> str:
        """Human-readable account of every quarantined record."""
        lines = [f"{self.repository.name}: "
                 f"{len(self.quarantine)} quarantined record(s)"]
        lines.extend(
            f"  {item.accession or '<unkeyed>'} @t{item.timestamp}: "
            f"{item.reason}"
            for item in self.quarantine
        )
        return "\n".join(lines)

    # -- shared helpers -----------------------------------------------------------

    @staticmethod
    def _normalize(text: str) -> str:
        """Canonical line endings, so per-record images compare equal to
        snapshot-split images (CSV renderers emit ``\\r\\n``)."""
        return text.replace("\r\n", "\n") if "\r" in text else text

    def _split_snapshot(self, text: str) -> dict[str, str]:
        splitter = _SPLITTERS[self.repository.representation]
        return splitter(self._normalize(text))

    def _dump_looks_truncated(self, dump: str) -> bool:
        """Whether the transfer died mid-payload (the wrapper's rule).

        A truncated dump loses its tail records *silently* (the splitter
        just finds fewer of them), which would read as deletions; this
        catches the torn tail so those deletions can be deferred.
        """
        return (self._wrapper is not None
                and bool(self._wrapper.torn_tail(self._normalize(dump))))

    def _ingest_dump(
        self, old: dict[str, str], dump: str
    ) -> tuple[list[Delta], dict[str, str], IngestReport]:
        """Split, truncation-check, validate, and diff one full dump."""
        self.cost.bytes_scanned += len(dump)
        current = self._split_snapshot(dump)
        torn = self._dump_looks_truncated(dump)
        if torn:
            self.quarantine.append(QuarantinedRecord(
                source=self.repository.name,
                accession=None,
                reason="dump truncated mid-record",
                text=dump[-120:],
                timestamp=self.repository.clock,
            ))
            self.health.quarantined += 1
        return self._validated_differential(old, current,
                                            assume_corrupt=torn)

    def _validate(self, accession: str, text: str) -> bool:
        """Parse-check one record image; quarantine it when corrupt."""
        if self._wrapper is None:
            return True
        try:
            parsed = self._wrapper.parse_record(text)
        except PARSE_FAILURES as error:
            reason = f"{type(error).__name__}: {error}"
        else:
            if parsed.accession == accession:
                return True
            reason = (f"accession mismatch: record parses as "
                      f"{parsed.accession!r}")
        self.quarantine.append(QuarantinedRecord(
            source=self.repository.name,
            accession=accession,
            reason=reason,
            text=text,
            timestamp=self.repository.clock,
        ))
        self.health.quarantined += 1
        return False

    def _differential_deltas(
        self, old: dict[str, str], new: dict[str, str]
    ) -> list[Delta]:
        differential = snapshot_differential(old, new)
        timestamp = self.repository.clock
        deltas = [
            Delta(self.repository.name, accession, INSERT,
                  None, new[accession], timestamp)
            for accession in differential.inserted
        ]
        deltas.extend(
            Delta(self.repository.name, accession, UPDATE,
                  old[accession], new[accession], timestamp)
            for accession in differential.updated
        )
        deltas.extend(
            Delta(self.repository.name, accession, DELETE,
                  old[accession], None, timestamp)
            for accession in differential.deleted
        )
        return deltas

    def _validated_differential(
        self, old: dict[str, str], new: dict[str, str],
        assume_corrupt: bool = False,
    ) -> tuple[list[Delta], dict[str, str], IngestReport]:
        """Diff *old* → *new* with corrupt new images quarantined.

        A corrupt image reverts to its previous version (or is excluded
        when new), so it produces no delta now and surfaces as an update
        once the source serves it cleanly.  A dump that quarantined
        anything is not trusted about missing records either: suspected
        deletes are deferred until a clean poll confirms them.  The
        returned :class:`IngestReport` names both kinds of deferral so
        callers know whether the ingest fully caught them up.
        """
        sanitized = dict(new)
        corrupt: set[str] = set()
        saw_corruption = assume_corrupt
        for accession, text in new.items():
            if old.get(accession) == text:
                continue
            if not self._validate(accession, text):
                saw_corruption = True
                corrupt.add(accession)
                if accession in old:
                    sanitized[accession] = old[accession]
                else:
                    del sanitized[accession]
        deferred: set[str] = set()
        if saw_corruption:
            for accession, text in old.items():
                if accession not in sanitized:
                    sanitized[accession] = text
                    deferred.add(accession)
        report = IngestReport(frozenset(deferred), frozenset(corrupt))
        return self._differential_deltas(old, sanitized), sanitized, report

    def _failed_poll(self, error: SourceError) -> list[Delta]:
        """Record a poll the source refused; state stays resumable."""
        self.health.failed_polls += 1
        self.health.last_error = str(error)
        return []

    def _snapshot_fallback(
        self, images: dict[str, str], error: SourceError
    ) -> tuple[list[Delta], dict[str, str], IngestReport | None]:
        """Degrade one poll to a snapshot differential against *images*.

        Snapshots are the capability every source guarantees (Figure 2),
        so this is the bottom rung of the degradation ladder; if even
        the snapshot fails, the poll counts as failed, *images* are
        returned unchanged and the report is ``None`` — callers must
        not advance any resync state in that case.
        """
        self.health.degraded_polls += 1
        self.health.last_error = str(error)
        try:
            dump = self.repository.snapshot()
        except SourceError as second:
            return self._failed_poll(second), images, None
        return self._ingest_dump(images, dump)


class TriggerMonitor(SourceMonitor):
    """Push-notification monitor for active sources (zero-cost detection).

    When the push channel goes quiet the monitor cannot know what it
    missed, so any poll that observes (or follows) a dead channel also
    runs a snapshot differential against its record images — which
    already include every delivered notification, so nothing is ever
    double-delivered.
    """

    strategy = "trigger"

    def __init__(self, repository: Repository) -> None:
        super().__init__(repository)
        if not repository.capabilities.active:
            raise SourceError(
                f"{repository.name} is not active; TriggerMonitor needs push",
                source=repository.name, operation="subscribe",
            )
        self._buffer: list[Delta] = []
        self._channel_was_down = False
        self._images: dict[str, str] = {
            accession: self._normalize(repository.render_record(
                repository.record_state(accession)
            ))
            for accession in repository.accessions()
        }
        repository.subscribe(self._on_notification)

    def _on_notification(self, entry: LogEntry,
                         rendered: str | None) -> None:
        self.cost.notifications += 1
        if rendered is not None:
            rendered = self._normalize(rendered)
        before = self._images.get(entry.accession)
        self._buffer.append(Delta(
            self.repository.name, entry.accession, entry.operation,
            before, rendered, entry.timestamp,
        ))
        if rendered is None:
            self._images.pop(entry.accession, None)
        else:
            self._images[entry.accession] = rendered

    def _poll(self) -> list[Delta]:
        drained, self._buffer = self._buffer, []
        available = self.repository.push_channel_available()
        if available and not self._channel_was_down:
            return drained
        extra, self._images, report = self._snapshot_fallback(
            self._images,
            SourceError(
                f"{self.repository.name} push channel unavailable",
                source=self.repository.name, operation="subscribe",
            ),
        )
        # The resync debt is paid only once a snapshot was ingested
        # *cleanly* — a failed or corrupt/torn fallback may still owe
        # deltas that were dropped with the channel, and no notification
        # will ever replay them, so keep degrading until a clean sweep.
        self._channel_was_down = (not available
                                  or report is None
                                  or not report.clean)
        return drained + extra


class LogMonitor(SourceMonitor):
    """Log-inspection monitor for logged sources.

    The log cursor is *resumable*: it moves past an entry only once the
    entry has been fully handled, so a poll interrupted by a source
    failure re-reads exactly the unhandled tail next time — no delta is
    lost, none is delivered twice.  When the log channel itself dies,
    the monitor degrades to a snapshot differential and remembers the
    resync clock, so log entries it already covered are skipped once
    the channel returns — but only entries a dump *actually* covered: a
    fallback whose snapshot also failed advances nothing, and DELETE
    entries confirming a delete the torn dump deferred are delivered,
    not skipped.
    """

    strategy = "log"

    def __init__(self, repository: Repository) -> None:
        super().__init__(repository)
        if not repository.capabilities.logged:
            raise SourceError(
                f"{repository.name} keeps no log; LogMonitor needs one",
                source=repository.name, operation="read_log",
            )
        self._last_sequence = (
            repository.read_log()[-1].sequence_number
            if repository.read_log() else 0
        )
        self._resync_clock = 0
        self._pending_refetch: set[str] = set()
        self._deferred_deletes: set[str] = set()
        self._images: dict[str, str] = {
            accession: self._normalize(repository.render_record(
                repository.record_state(accession)
            ))
            for accession in repository.accessions()
        }

    def _fetch(self, accession: str) -> str | None:
        if self.repository.capabilities.queryable:
            record = self.repository.query(accession)
            if record is not None:
                record = self._normalize(record)
        else:
            record = self._split_snapshot(
                self.repository.snapshot()
            ).get(accession)
        if record is not None:
            self.cost.records_fetched += 1
            self.cost.bytes_scanned += len(record)
        return record

    def _consume(self, entry: LogEntry) -> None:
        self.cost.log_entries_read += 1
        self._last_sequence = entry.sequence_number

    def _poll(self) -> list[Delta]:
        try:
            entries = self.repository.read_log(self._last_sequence)
        except SourceError as error:
            deltas, self._images, report = self._snapshot_fallback(
                self._images, error)
            if report is not None:
                # Only a resync that actually ingested a dump may later
                # skip the log entries it covered; after a failed
                # fallback the state stays put so the next poll retries.
                self._resync_clock = self.repository.clock
                self._deferred_deletes = set(report.deferred_deletes)
                # The dump covered every record it served cleanly; what
                # it served corrupt is pending again, and what it left
                # out (deferred deletes) keeps its previous status.
                self._pending_refetch = set(report.corrupt) | (
                    self._pending_refetch & report.deferred_deletes
                )
            return deltas
        deltas: list[Delta] = []
        for entry in entries:
            if entry.timestamp <= self._resync_clock:
                if (entry.operation != DELETE
                        or entry.accession not in self._deferred_deletes):
                    # Its effect was already delivered by a snapshot
                    # resync while the log channel was down.
                    self._consume(entry)
                    continue
                # A suspected delete the torn resync deferred: this log
                # entry is exactly the confirmation it was waiting for,
                # so fall through and deliver it.
            before = self._images.get(entry.accession)
            after = None
            if entry.operation == DELETE:
                if before is None:
                    # Inserted and deleted between polls: net effect zero.
                    self._consume(entry)
                    continue
            else:
                try:
                    after = self._fetch(entry.accession)
                except SourceError as error:
                    # Resumable cursor: this entry was NOT consumed, so
                    # the next poll re-reads it — nothing lost, nothing
                    # delivered twice.
                    self.health.failed_polls += 1
                    self.health.last_error = str(error)
                    return deltas
                if after is None:
                    # Updated then deleted before we looked: skip; the
                    # delete entry follows in the log.
                    self._consume(entry)
                    continue
                if not self._validate(entry.accession, after):
                    # Corrupt after-image: quarantined, entry consumed;
                    # the record is re-fetched on later polls until it
                    # reads cleanly (its stored image is left untouched).
                    self._pending_refetch.add(entry.accession)
                    self._consume(entry)
                    continue
            self._consume(entry)
            self._pending_refetch.discard(entry.accession)
            self._deferred_deletes.discard(entry.accession)
            deltas.append(Delta(
                self.repository.name, entry.accession, entry.operation,
                before, after, entry.timestamp,
            ))
            if after is None:
                self._images.pop(entry.accession, None)
            else:
                self._images[entry.accession] = after
        deltas.extend(self._recover_quarantined())
        return deltas

    def _recover_quarantined(self) -> list[Delta]:
        """Re-fetch records whose last after-image was quarantined; each
        surfaces as a fresh delta once the source serves it cleanly."""
        recovered: list[Delta] = []
        for accession in sorted(self._pending_refetch):
            try:
                after = self._fetch(accession)
            except SourceError as error:
                self.health.last_error = str(error)
                break  # still pending; the next poll tries again
            if after is None:
                # Gone: the DELETE log entry delivers the disappearance.
                self._pending_refetch.discard(accession)
                continue
            if not self._validate(accession, after):
                continue  # still corrupt, still pending
            self._pending_refetch.discard(accession)
            before = self._images.get(accession)
            if after == before:
                continue
            recovered.append(Delta(
                self.repository.name, accession,
                UPDATE if before is not None else INSERT,
                before, after, self.repository.clock,
            ))
            self._images[accession] = after
        return recovered


class PollingMonitor(SourceMonitor):
    """Record-polling monitor for queryable sources.

    Each poll fetches the record list and every record image, then
    compares with the previous images.  Multiple source updates between
    two polls coalesce into one delta — the recall/cost trade-off of
    choosing a polling frequency (section 5.2).  If the query interface
    refuses mid-poll, the monitor falls back to the snapshot rung.
    """

    strategy = "polling"

    def __init__(self, repository: Repository) -> None:
        super().__init__(repository)
        if not repository.capabilities.queryable:
            raise SourceError(
                f"{repository.name} is not queryable; "
                f"PollingMonitor needs a query API",
                source=repository.name, operation="query",
            )
        self._images = self._fetch_all(charge=False)

    def _fetch_all(self, charge: bool = True) -> dict[str, str]:
        images: dict[str, str] = {}
        for accession in self.repository.query_accessions():
            record = self.repository.query(accession)
            if record is None:
                continue
            record = self._normalize(record)
            images[accession] = record
            if charge:
                self.cost.records_fetched += 1
                self.cost.bytes_scanned += len(record)
        return images

    def _poll(self) -> list[Delta]:
        try:
            current = self._fetch_all()
        except SourceError as error:
            deltas, self._images, _ = self._snapshot_fallback(self._images,
                                                              error)
            return deltas
        deltas, self._images, _ = self._validated_differential(self._images,
                                                               current)
        return deltas


class SnapshotMonitor(SourceMonitor):
    """Full-dump differential monitor for non-queryable sources.

    Already the bottom rung of the ladder: a refused dump simply defers
    detection to the next poll (changes coalesce, nothing is lost)."""

    strategy = "snapshot"

    def __init__(self, repository: Repository) -> None:
        super().__init__(repository)
        self._images = self._split_snapshot(repository.snapshot())

    def _poll(self) -> list[Delta]:
        try:
            dump = self.repository.snapshot()
        except SourceError as error:
            return self._failed_poll(error)
        deltas, self._images, _ = self._ingest_dump(self._images, dump)
        return deltas


def choose_monitor(repository: Repository) -> SourceMonitor:
    """Pick the cheapest strategy Figure 2 allows for this source."""
    if repository.capabilities.active:
        return TriggerMonitor(repository)
    if repository.capabilities.logged:
        return LogMonitor(repository)
    if repository.capabilities.queryable:
        return PollingMonitor(repository)
    return SnapshotMonitor(repository)
