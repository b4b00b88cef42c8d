"""End-to-end integration tests: the whole paper's pipeline in one place.

Each test runs a complete slice of the system: sources → ETL → warehouse
→ adapter → algebra → languages, asserting cross-layer invariants that
unit tests cannot see.
"""

import pytest

from repro import (
    BiqlSession,
    Mediator,
    UnifyingDatabase,
    genomics_algebra,
)
from repro.core import ops
from repro.core.types import DnaSequence
from repro.lang import genalgxml
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)


@pytest.fixture(scope="module")
def world():
    universe = Universe(seed=2003, size=60)
    sources = [
        GenBankRepository(universe),
        EmblRepository(universe),
        SwissProtRepository(universe),
        AceRepository(universe),
        RelationalRepository(universe),
    ]
    warehouse = UnifyingDatabase(sources)
    warehouse.initial_load()
    return universe, sources, warehouse


class TestGroundTruthRecovery:
    def test_reconciliation_beats_any_single_noisy_source(self, world):
        """The warehouse's weighted vote should recover the true
        sequence more often than the noisiest source reports it."""
        universe, sources, warehouse = world
        genbank = next(s for s in sources if s.name == "GenBank")

        def correct_fraction(pairs):
            right = wrong = 0
            for accession, text in pairs:
                truth = universe.spec(accession).sequence_text
                if text == truth:
                    right += 1
                else:
                    wrong += 1
            return right / max(1, right + wrong)

        warehouse_pairs = [
            (accession, str(warehouse.gene(accession).sequence))
            for accession in warehouse.query(
                "SELECT accession FROM public_genes "
                "WHERE source_count >= 3"
            ).column("accession")
        ]
        genbank_pairs = [
            (accession, genbank.record_state(accession).sequence_text)
            for accession, __ in warehouse_pairs
            if accession in genbank.accessions()
        ]
        assert correct_fraction(warehouse_pairs) \
            >= correct_fraction(genbank_pairs)

    def test_protein_column_matches_expression_of_truth(self, world):
        """For clean multi-source genes, expressing the reconciled gene
        should reproduce the ground-truth protein."""
        universe, __, warehouse = world
        algebra = genomics_algebra()
        matches = 0
        checked = 0
        for accession in warehouse.query(
            "SELECT accession FROM public_genes WHERE source_count >= 3 "
            "LIMIT 10"
        ).column("accession"):
            gene = warehouse.gene(accession)
            truth = universe.spec(accession)
            if str(gene.sequence) != truth.sequence_text:
                continue  # reconciliation picked a noisy reading
            checked += 1
            protein = algebra.evaluate(
                algebra.parse("express(g)", variables={"g": "gene"}),
                {"g": gene},
            )
            if protein.sequence == truth.protein.sequence:
                matches += 1
        assert checked > 0
        assert matches == checked


class TestCrossLayerConsistency:
    def test_biql_builder_sql_mediator_agree_on_motif(self, world):
        __, sources, warehouse = world
        motif = "ATGGC"
        session = BiqlSession(warehouse)

        via_sql = set(warehouse.query(
            "SELECT accession FROM public_genes "
            "WHERE contains(sequence, ?)", [motif]
        ).column("accession"))
        via_biql = set(session.run(
            f"FIND genes WHERE sequence CONTAINS '{motif}' SHOW accession"
        ).column("accession"))
        assert via_sql == via_biql

        # The mediator sees per-source views; its accession set must be
        # a subset of warehouse accessions matching in ANY source view
        # — and every warehouse hit whose reconciled sequence matches
        # must come from some source view that also matches.
        mediator = Mediator(
            [s for s in sources if s.name != "SwissProt"]
        )
        mediated = {row.accession
                    for row in mediator.find_genes(contains_motif=motif)}
        assert mediated  # non-trivial
        # Sanity: mediated accessions exist in the warehouse.
        loaded = set(warehouse.query(
            "SELECT accession FROM public_genes"
        ).column("accession"))
        assert mediated <= loaded

    def test_xml_export_of_query_results_round_trips(self, world):
        __, __, warehouse = world
        genes = [
            warehouse.gene(accession)
            for accession in warehouse.query(
                "SELECT accession FROM public_genes LIMIT 5"
            ).column("accession")
        ]
        document = genalgxml.dumps(genes)
        restored = genalgxml.loads(document)
        assert [g.sequence for g in restored] \
            == [g.sequence for g in genes]

    def test_algebra_term_against_warehouse_values(self, world):
        __, __, warehouse = world
        algebra = genomics_algebra()
        accession = warehouse.query(
            "SELECT accession FROM public_genes "
            "WHERE exon_count > 1 LIMIT 1"
        ).scalar()
        gene = warehouse.gene(accession)
        via_term = algebra.evaluate(
            algebra.parse("gc_content(gene_sequence(g))",
                          variables={"g": "gene"}),
            {"g": gene},
        )
        via_sql = warehouse.query(
            "SELECT gc FROM public_genes WHERE accession = ?",
            [accession],
        ).scalar()
        assert via_term == pytest.approx(via_sql)


class TestLifecycle:
    def test_full_lifecycle_survives_save_refresh_restore(self, tmp_path):
        universe = Universe(seed=404, size=40)
        sources = [GenBankRepository(universe), EmblRepository(universe)]
        warehouse = UnifyingDatabase(sources, with_indexes=False)
        warehouse.initial_load()

        # User activity.
        accession = warehouse.query(
            "SELECT accession FROM public_genes LIMIT 1"
        ).scalar()
        warehouse.annotate("alice", accession, "lifecycle note")
        warehouse.add_user_sequence(
            "alice", "probe", DnaSequence("ATGGCCATT")
        )

        # Source churn + refresh, twice.
        for __ in range(2):
            for source in sources:
                source.advance(8)
            warehouse.refresh()

        # Save, restore, keep refreshing.
        path = str(tmp_path / "wh.json")
        warehouse.save(path)
        restored = UnifyingDatabase.restore(path, sources)
        for source in sources:
            source.advance(5)
        restored.refresh()

        covered = set()
        for source in sources:
            covered.update(source.accessions())
        assert set(restored.query(
            "SELECT accession FROM public_genes"
        ).column("accession")) == covered
        assert restored.query(
            "SELECT count(*) FROM user_sequences"
        ).scalar() == 1
        assert restored.query(
            "SELECT count(*) FROM annotations"
        ).scalar() == 1
        # Archive kept growing across the whole lifecycle.
        assert restored.query(
            "SELECT count(*) FROM archive"
        ).scalar() > 0

    def test_sequence_analysis_pipeline(self, world):
        """The workbench scenario: read → identify → digest → express."""
        __, __, warehouse = world
        # Take a fragment of a known gene as the "lab read".
        accession, text = warehouse.query(
            "SELECT accession, seq_text(sequence) FROM public_genes "
            "WHERE length > 80 LIMIT 1"
        ).first()
        read = DnaSequence(text[5:65])

        index = ops.WordIndex(word_size=8)
        for row_accession, row_text in warehouse.query(
            "SELECT accession, seq_text(sequence) FROM public_genes"
        ):
            index.add(row_accession, row_text)
        hit = ops.best_hit(str(read), index, min_score=40)
        assert hit is not None
        assert hit.subject_id == accession

        gene = warehouse.gene(hit.subject_id)
        fragments = ops.digest(gene.sequence,
                               list(ops.STANDARD_ENZYMES))
        assert sum(len(f) for f in fragments) == len(gene.sequence)

        protein = ops.express(gene)
        assert str(protein.sequence).startswith("M")
