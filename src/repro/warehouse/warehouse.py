"""The Unifying Database: warehouse facade over the extensible engine.

This is the second pillar of the paper (section 5): a data warehouse
integrating every simulated repository, with

- the integrated schema (public read-only space + private user space),
- the ETL pipeline (monitors → wrappers → integrator → loader),
- incremental, self-maintainable refresh with a manual-deferral option,
- historical archiving of replaced records and full releases (C15),
- annotation bookkeeping across refreshes (the open problem of §5.2 —
  annotations whose subject changed are flagged stale instead of being
  silently kept or dropped),
- the Genomics Algebra available in every query through the adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.adapter import install_genomics
from repro.core.types import DnaSequence, Gene, Interval, Protein
from repro.core.ops import gc_content
from repro.db import Database, NULL, ResultSet
from repro.db.sql import ast
from repro.errors import IntegrationError, ReproError
from repro.etl.delta import DELETE, Delta
from repro.etl.monitors import SourceMonitor, choose_monitor
from repro.etl.wrappers import ParsedRecord, Wrapper, wrapper_for
from repro.obs.metrics import count as _metric
from repro.obs.trace import span as _span
from repro.sources.base import Repository
from repro.warehouse.integrator import ConsolidatedRecord, Integrator
from repro.warehouse.schema import create_schema, is_public_table


@dataclass
class RefreshReport:
    """What one load/refresh pass did, and what it cost."""

    mode: str
    deltas_processed: int = 0
    genes_upserted: int = 0
    proteins_upserted: int = 0
    genes_deleted: int = 0
    conflicts_recorded: int = 0
    annotations_marked_stale: int = 0
    records_quarantined: int = 0
    monitor_cost_units: int = 0
    sources: tuple[str, ...] = field(default_factory=tuple)

    def publish(self) -> "RefreshReport":
        """Mirror this pass's counters into the process-wide registry
        (a no-op while metrics are disabled); returns self."""
        _metric("warehouse", "passes")
        for counter in ("deltas_processed", "genes_upserted",
                        "proteins_upserted", "genes_deleted",
                        "conflicts_recorded", "annotations_marked_stale",
                        "records_quarantined", "monitor_cost_units"):
            amount = getattr(self, counter)
            if amount:
                _metric("warehouse", counter, amount)
        return self


def _exons_to_text(exons: Iterable[Interval]) -> str:
    return ";".join(f"{e.start}-{e.end}" for e in exons)


def _exons_from_text(text: str | None) -> tuple[Interval, ...]:
    if not text:
        return ()
    return tuple(
        Interval(int(start), int(end))
        for start, _, end in (span.partition("-")
                              for span in text.split(";"))
    )


def _refuse_public_write(statement: ast.Statement) -> None:
    """The :meth:`UnifyingDatabase.execute_user` guard (§5.1)."""
    target: str | None = None
    if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
        target = statement.table
    elif isinstance(statement, (ast.CreateTable, ast.DropTable)):
        target = statement.name
    if target is not None and is_public_table(target):
        raise IntegrationError(
            f"table {target!r} is in the public space and read-only; "
            f"use annotations or user tables instead"
        )


class UnifyingDatabase:
    """The integrated genomic warehouse."""

    def __init__(
        self,
        sources: Sequence[Repository] = (),
        reliability: dict[str, float] | None = None,
        refresh_policy: str = "auto",
        with_indexes: bool = True,
    ) -> None:
        if refresh_policy not in ("auto", "manual"):
            raise IntegrationError(
                f"refresh policy must be auto or manual, got "
                f"{refresh_policy!r}"
            )
        self.db = Database()
        install_genomics(self.db)
        create_schema(self.db, with_indexes=with_indexes)
        self.integrator = Integrator(reliability)
        self.refresh_policy = refresh_policy
        self._clock = 0
        self.wal = None
        self._polled: dict[str, list[Delta]] = {}
        self.sources: dict[str, Repository] = {}
        self.monitors: dict[str, SourceMonitor] = {}
        self.wrappers: dict[str, Wrapper] = {}
        for repository in sources:
            self.attach_source(repository)

    # -- source management ----------------------------------------------------

    def attach_source(self, repository: Repository) -> None:
        """Register a repository: monitor + wrapper (before initial load)."""
        if repository.name in self.sources:
            raise IntegrationError(
                f"source {repository.name!r} already attached"
            )
        self.sources[repository.name] = repository
        self.monitors[repository.name] = choose_monitor(repository)
        self.wrappers[repository.name] = wrapper_for(repository.name)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- staging ------------------------------------------------------------------

    def _stage(self, parsed: ParsedRecord) -> None:
        skey = f"{parsed.source}:{parsed.accession}"
        self.db.execute("DELETE FROM staging WHERE skey = ?", [skey])
        self.db.execute(
            "INSERT INTO staging VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                skey, parsed.source, parsed.accession, parsed.version,
                parsed.name, parsed.organism, parsed.description,
                parsed.dna, parsed.protein,
                _exons_to_text(parsed.exons), self._tick(),
            ],
        )

    def _unstage(self, source: str, accession: str) -> None:
        self.db.execute("DELETE FROM staging WHERE skey = ?",
                        [f"{source}:{accession}"])

    def _staged_records(self, accession: str) -> list[ParsedRecord]:
        rows = self.db.query(
            "SELECT source, accession, version, name, organism, "
            "description, dna, protein, exons FROM staging "
            "WHERE accession = ?",
            [accession],
        )
        return [ParsedRecord(source, accession, version or 1, *values,
                             exons=_exons_from_text(exons))
                for source, accession, version, *values, exons in rows]

    # -- reconcile + load -------------------------------------------------------------

    def _upsert_gene(self, consolidated: ConsolidatedRecord,
                     loaded_at: int) -> bool:
        if consolidated.gene is None:
            return False
        gene = consolidated.gene
        self.db.execute("DELETE FROM public_genes WHERE accession = ?",
                        [consolidated.accession])
        self.db.execute(
            "INSERT INTO public_genes VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                consolidated.accession, consolidated.name,
                consolidated.organism, consolidated.description,
                gene, gene.sequence, len(gene.sequence), len(gene.exons),
                gc_content(gene.sequence), consolidated.source_count,
                loaded_at,
            ],
        )
        return True

    def _upsert_protein(self, consolidated: ConsolidatedRecord,
                        loaded_at: int) -> bool:
        if consolidated.protein is None:
            return False
        protein_value = Protein(
            sequence=consolidated.protein,
            name=(f"{consolidated.name} protein"
                  if consolidated.name else None),
            gene_name=consolidated.name,
            organism=consolidated.organism,
            accession=consolidated.accession,
        )
        self.db.execute("DELETE FROM public_proteins WHERE accession = ?",
                        [consolidated.accession])
        self.db.execute(
            "INSERT INTO public_proteins VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                consolidated.accession, consolidated.name,
                consolidated.organism, protein_value,
                consolidated.protein, len(consolidated.protein), loaded_at,
            ],
        )
        return True

    def _record_conflicts(self, consolidated: ConsolidatedRecord,
                          detected_at: int) -> int:
        self.db.execute("DELETE FROM conflicts WHERE accession = ?",
                        [consolidated.accession])
        for field_name, readings in consolidated.conflicts:
            self.db.execute(
                "INSERT INTO conflicts VALUES (?, ?, ?, ?)",
                [consolidated.accession, field_name, readings, detected_at],
            )
        return len(consolidated.conflicts)

    def _reconcile(self, accession: str, report: RefreshReport) -> None:
        staged = self._staged_records(accession)
        loaded_at = self._tick()
        if not staged:
            deleted = self.db.execute(
                "DELETE FROM public_genes WHERE accession = ?", [accession]
            )
            self.db.execute(
                "DELETE FROM public_proteins WHERE accession = ?",
                [accession],
            )
            self.db.execute("DELETE FROM conflicts WHERE accession = ?",
                            [accession])
            report.genes_deleted += deleted
            return
        consolidated = self.integrator.consolidate(staged)
        if self._upsert_gene(consolidated, loaded_at):
            report.genes_upserted += 1
        if self._upsert_protein(consolidated, loaded_at):
            report.proteins_upserted += 1
        report.conflicts_recorded += self._record_conflicts(
            consolidated, loaded_at
        )

    def _mark_annotations_stale(self, accessions: Iterable[str],
                                report: RefreshReport) -> None:
        for accession in accessions:
            report.annotations_marked_stale += self.db.execute(
                "UPDATE annotations SET stale = TRUE WHERE accession = ?",
                [accession],
            )

    # -- load paths ------------------------------------------------------------------------

    def _quarantine(self, source: str, accession: str | None,
                    record_text: str, error: Exception,
                    report: RefreshReport) -> None:
        """Park an unparseable record instead of aborting the load (B10)."""
        self.db.execute(
            "INSERT INTO quarantine VALUES (?, ?, ?, ?, ?)",
            [source, accession, record_text, str(error), self._tick()],
        )
        report.records_quarantined += 1

    def initial_load(self) -> RefreshReport:
        """Parse every source's full snapshot and build the public space."""
        with _span("warehouse.initial_load",
                   sources=len(self.sources)) as spn:
            report = RefreshReport(mode="initial",
                                   sources=tuple(sorted(self.sources)))
            affected: set[str] = set()
            for name, repository in self.sources.items():
                snapshot = repository.snapshot()
                self.archive_release(name, snapshot)
                wrapper = self.wrappers[name]
                for record_text in wrapper.split_snapshot(snapshot):
                    try:
                        parsed = wrapper.parse_record(record_text)
                    except ReproError as error:
                        self._quarantine(name, None, record_text, error,
                                         report)
                        continue
                    self._stage(parsed)
                    affected.add(parsed.accession)
                    report.deltas_processed += 1
            for accession in sorted(affected):
                self._reconcile(accession, report)
            spn.annotate(records=report.deltas_processed,
                         quarantined=report.records_quarantined)
            return report.publish()

    def refresh(self, only_sources: Sequence[str] | None = None
                ) -> RefreshReport:
        """Incremental, self-maintainable refresh from monitor deltas.

        Only the deltas and the warehouse's own staging contents are
        consulted — no source re-read — which is the self-maintainability
        property of section 5.2.  With ``refresh_policy='manual'`` the
        biologist calls this explicitly to advance or defer updates.

        A refresh is one transaction, so one WAL record.  A failure rolls
        it back and re-raises, keeping the deltas it polled and restoring
        the load clock: the next refresh applies those deltas first.
        """
        with _span("warehouse.refresh") as spn:
            report = RefreshReport(mode="incremental",
                                   sources=tuple(sorted(
                                       only_sources or self.sources)))
            affected: set[str] = set()
            clock = self._clock
            self.db.begin()
            try:
                for name in report.sources:
                    monitor = self.monitors[name]
                    before_cost = monitor.cost.total_units()
                    deltas = self._polled[name] = (
                        self._polled.get(name, []) + monitor.poll())
                    report.monitor_cost_units += (monitor.cost.total_units()
                                                  - before_cost)
                    wrapper = self.wrappers[name]
                    for delta in deltas:
                        self._apply_delta(name, wrapper, delta, report)
                        affected.add(delta.accession)
                for accession in sorted(affected):
                    self._reconcile(accession, report)
                self._mark_annotations_stale(sorted(affected), report)
            except BaseException:
                self.db.rollback()
                self._clock = clock
                raise
            self.db.commit()
            for name in report.sources:
                self._polled.pop(name, None)
            spn.annotate(deltas=report.deltas_processed,
                         quarantined=report.records_quarantined)
            return report.publish()

    def _apply_delta(self, source: str, wrapper: Wrapper, delta: Delta,
                     report: RefreshReport) -> None:
        loaded_at = self._tick()
        if delta.before is not None:
            # C15/archival: the replaced image is preserved.
            self.db.execute(
                "INSERT INTO archive VALUES (?, ?, ?, ?, ?)",
                [delta.accession, source, NULL, delta.before, loaded_at],
            )
        if delta.operation == DELETE:
            self._unstage(source, delta.accession)
        else:
            try:
                parsed = wrapper.parse_record(delta.after or "")
            except ReproError as error:
                self._quarantine(source, delta.accession,
                                 delta.after or "", error, report)
                return
            self._stage(parsed)
        self.db.execute(
            "INSERT INTO provenance VALUES (?, ?, ?, ?, ?, ?)",
            [delta.delta_id, delta.accession, source, delta.timestamp,
             delta.operation, loaded_at],
        )
        report.deltas_processed += 1

    def maybe_refresh(self) -> RefreshReport:
        """Refresh only under the ``auto`` policy.

        With ``refresh_policy='manual'`` this is a no-op reporting mode
        ``deferred`` — "this allows the biologist to defer or advance
        updates depending on the situation" (§5.2); call
        :meth:`refresh` explicitly to advance.
        """
        if self.refresh_policy == "manual":
            return RefreshReport(mode="deferred",
                                 sources=tuple(sorted(self.sources)))
        return self.refresh()

    def full_reload(self) -> RefreshReport:
        """Drop and rebuild the public space from fresh snapshots.

        The expensive baseline the view-maintenance discussion of §5.2
        compares incremental refresh against.
        """
        for table in ("public_genes", "public_proteins", "staging",
                      "conflicts"):
            self.db.execute(f"DELETE FROM {table}")
        # Monitors must also re-baseline, or the next incremental poll
        # would re-report everything (and held deltas are superseded).
        self._polled.clear()
        for name, repository in self.sources.items():
            self.monitors[name] = choose_monitor(repository)
        report = self.initial_load()
        report.mode = "full-reload"
        return report

    # -- archive (C15) ---------------------------------------------------------------------

    def archive_release(self, source: str, snapshot: str) -> int:
        """Preserve a full source release; returns its release number."""
        previous = self.db.query(
            "SELECT count(*) FROM releases WHERE source = ?", [source]
        ).scalar()
        release_number = previous + 1
        self.db.execute(
            "INSERT INTO releases VALUES (?, ?, ?, ?)",
            [source, release_number, snapshot, self._tick()],
        )
        return release_number

    def history(self, accession: str) -> ResultSet:
        """Archived former images of one accession, oldest first."""
        return self.db.query(
            "SELECT source, record_text, archived_at FROM archive "
            "WHERE accession = ? ORDER BY archived_at",
            [accession],
        )

    # -- user-facing API ---------------------------------------------------------------------

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """Read anything — public and user space alike."""
        return self.db.query(sql, parameters)

    def explain(self, sql: str, parameters: Sequence[Any] = (), *,
                analyze: bool = False) -> str:
        return self.db.explain(sql, parameters, analyze=analyze)

    def execute_user(self, sql: str,
                     parameters: Sequence[Any] = ()) -> Any:
        """Run a user statement; writes to the public space are refused.

        "The schema containing the external data is read-only …
        user-owned entities are updateable by their owners." (§5.1)
        """
        return self.db.execute(sql, parameters, check=_refuse_public_write)

    def annotate(self, owner: str, accession: str, note: str) -> int:
        """Attach a user annotation to a public record."""
        known = self.db.query(
            "SELECT count(*) FROM public_genes WHERE accession = ?",
            [accession],
        ).scalar()
        if not known:
            raise IntegrationError(
                f"cannot annotate unknown accession {accession!r}"
            )
        next_id = (self.db.query(
            "SELECT count(*) FROM annotations"
        ).scalar() + 1)
        self.db.execute(
            "INSERT INTO annotations VALUES (?, ?, ?, ?, ?, FALSE)",
            [next_id, owner, accession, note, self._tick()],
        )
        return next_id

    def add_user_sequence(self, owner: str, label: str,
                          sequence: DnaSequence) -> int:
        """Store self-generated data next to the public data (C13)."""
        next_id = (self.db.query(
            "SELECT count(*) FROM user_sequences"
        ).scalar() + 1)
        self.db.execute(
            "INSERT INTO user_sequences VALUES (?, ?, ?, ?, ?)",
            [next_id, owner, label, sequence, self._tick()],
        )
        return next_id

    def gene(self, accession: str) -> Gene:
        """The reconciled GENE value of one accession."""
        result = self.db.query(
            "SELECT gene FROM public_genes WHERE accession = ?",
            [accession],
        )
        if not len(result):
            raise IntegrationError(f"no public gene {accession!r}")
        return result.scalar()

    def conflict_report(self, accession: str | None = None) -> ResultSet:
        """The recorded multi-source conflicts (C9)."""
        if accession is None:
            return self.db.query(
                "SELECT accession, field, readings FROM conflicts "
                "ORDER BY accession, field"
            )
        return self.db.query(
            "SELECT accession, field, readings FROM conflicts "
            "WHERE accession = ? ORDER BY field",
            [accession],
        )

    def stale_annotations(self) -> ResultSet:
        """Annotations whose subject changed since they were written."""
        return self.db.query(
            "SELECT id, owner, accession, note FROM annotations "
            "WHERE stale = TRUE ORDER BY id"
        )

    def provenance(self, accession: str) -> ResultSet:
        """The load history of one accession: which source said what, when."""
        return self.db.query(
            "SELECT delta_id, source, operation, loaded_at "
            "FROM provenance WHERE accession = ? ORDER BY loaded_at",
            [accession],
        )

    def quarantined(self) -> ResultSet:
        """Source records that could not be parsed (kept for forensics)."""
        return self.db.query(
            "SELECT source, accession, error FROM quarantine "
            "ORDER BY quarantined_at"
        )

    # -- persistence -------------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the entire warehouse (both spaces) as a disk image."""
        from repro.db.storage import save_database

        save_database(self.db, path)

    def attach_wal(self, path: str, *, flush_every_n: int = 1,
                   fsync: bool = False):
        """Log every warehouse mutation to a write-ahead log at *path*.

        ``flush_every_n`` enables group commit for heavy load paths; call
        :meth:`checkpoint` periodically to bound the log (the WAL is
        rotated, never blindly truncated).
        """
        from repro.db.storage import WriteAheadLog

        self.wal = WriteAheadLog(path, self.db,
                                 flush_every_n=flush_every_n, fsync=fsync)
        self.wal.attach()
        return self.wal

    def checkpoint(self, image_path: str) -> None:
        """Write an image and rotate the attached WAL (crash-safe)."""
        from repro.db.storage import checkpoint

        checkpoint(self.db, image_path, self.wal)

    @classmethod
    def restore(
        cls,
        path: str,
        sources: Sequence[Repository] = (),
        reliability: dict[str, float] | None = None,
        refresh_policy: str = "auto",
        wal_path: str | None = None,
    ) -> "UnifyingDatabase":
        """Rebuild a warehouse from a saved image.

        With *wal_path*, the image is treated as the last checkpoint and
        every write-ahead-log segment it does not cover is replayed on
        top — the full crash-recovery path, UDTs included.

        Monitors re-baseline against the *current* source state, so only
        changes after the restore are picked up incrementally; to also
        catch changes that happened while the warehouse was offline, run
        :meth:`full_reload` once after restoring.
        """
        from repro.db.storage import load_database

        warehouse = cls.__new__(cls)
        warehouse.db = Database()
        install_genomics(warehouse.db)
        if wal_path is not None:
            from repro.db.recovery import recover

            recover(path, wal_path, database=warehouse.db)
        else:
            load_database(path, warehouse.db)
        warehouse.integrator = Integrator(reliability)
        warehouse.refresh_policy = refresh_policy
        warehouse.wal = None
        warehouse._polled = {}
        warehouse.sources = {}
        warehouse.monitors = {}
        warehouse.wrappers = {}

        # Resume the load clock past every persisted timestamp.
        high_water = 0
        for table, column in (
            ("public_genes", "updated_at"),
            ("public_proteins", "updated_at"),
            ("staging", "updated_at"),
            ("archive", "archived_at"),
            ("releases", "archived_at"),
            ("annotations", "created_at"),
        ):
            value = warehouse.db.query(
                f"SELECT max({column}) FROM {table}"
            ).scalar()
            if isinstance(value, int):
                high_water = max(high_water, value)
        warehouse._clock = high_water

        for repository in sources:
            warehouse.attach_source(repository)
        return warehouse
