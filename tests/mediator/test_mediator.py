"""Tests for the query-driven mediator baseline (Figure 1)."""

import pytest

from repro.errors import MediatorError
from repro.mediator import Mediator
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
)


@pytest.fixture(scope="module")
def setting():
    universe = Universe(seed=19, size=40)
    sources = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    return universe, sources


class TestConstruction:
    def test_needs_sources(self):
        with pytest.raises(MediatorError):
            Mediator([])

    def test_source_names(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        assert mediator.source_names == ("GenBank", "EMBL", "AceDB")


class TestQueries:
    def test_find_all_genes(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        rows = mediator.find_genes()
        total = sum(len(s) for s in sources)
        assert len(rows) == total  # one row per source view, unreconciled

    def test_organism_filter(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        rows = mediator.find_genes(organism="Escherichia coli")
        assert all(row.organism == "Escherichia coli" for row in rows)

    def test_motif_filter(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        rows = mediator.find_genes(contains_motif="ATG")
        assert rows
        assert all("ATG" in row.sequence_text for row in rows)

    def test_length_and_prefix_filters(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        rows = mediator.find_genes(min_length=100, name_prefix="lac")
        assert all(len(row.sequence_text) >= 100 for row in rows)
        assert all(row.name.startswith("lac") for row in rows)

    def test_count(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        assert len(mediator.find_genes()) == len(mediator.find_genes())

    def test_protein_sources_excluded_from_gene_view(self, setting):
        universe, __ = setting
        mediator = Mediator([SwissProtRepository(universe)])
        assert mediator.find_genes() == []


class TestFreshnessAndCost:
    def test_sees_updates_immediately(self, setting):
        universe, __ = setting
        source = EmblRepository(universe, seed=9)
        mediator = Mediator([source])
        before = {row.accession for row in mediator.find_genes()}
        source.advance(10)
        after = {row.accession for row in mediator.find_genes()}
        assert after == set(source.accessions())
        assert before != after or True  # freshness: always current state

    def test_every_query_pays_extraction(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        mediator.find_genes()
        first_cost = mediator.cost.bytes_shipped
        mediator.find_genes()
        assert mediator.cost.bytes_shipped == 2 * first_cost

    def test_cost_grows_with_sources(self, setting):
        universe, sources = setting
        small = Mediator(sources[:1])
        large = Mediator(sources)
        small.find_genes()
        large.find_genes()
        assert large.cost.bytes_shipped > small.cost.bytes_shipped

    def test_cost_reset(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        mediator.find_genes()
        snapshot = mediator.cost.reset()
        assert snapshot.bytes_shipped > 0
        assert mediator.cost.bytes_shipped == 0


class TestUnreconciledSemantics:
    def test_multiple_views_per_accession(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        shared = (set(sources[0].accessions())
                  & set(sources[1].accessions()))
        if not shared:
            pytest.skip("no overlap in this draw")
        accession = sorted(shared)[0]
        views = mediator.gene(accession)
        assert len(views) >= 2
        assert len({view.source for view in views}) == len(views)

    def test_disagreements_exposed_not_resolved(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        shared = (set(sources[0].accessions())
                  & set(sources[1].accessions()))
        disagreeing = [
            accession for accession in sorted(shared)
            if mediator.disagreements(accession)
        ]
        # With 30-40% error rates, some shared record must disagree.
        assert disagreeing
        fields = mediator.disagreements(disagreeing[0])
        assert "sequence_text" in fields or "description" in fields

    def test_single_record_fetch(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        accession = sources[1].accessions()[0]  # EMBL is queryable
        views = mediator.gene(accession)
        assert any(view.source == "EMBL" for view in views)
        assert mediator.gene("NOPE") == []


class TestPerQueryMemo:
    def test_batch_query_ships_one_dump_per_source(self, setting):
        universe, __ = setting
        source = AceRepository(universe)  # non-queryable: dump-only
        mediator = Mediator([source])
        accessions = source.accessions()[:3]

        mediator.genes(accessions)
        batched = mediator.cost.reset()
        for accession in accessions:
            mediator.gene(accession)
        sequential = mediator.cost.reset()

        # One query = one dump; three queries = three dumps.
        assert batched.source_requests == 1
        assert sequential.source_requests == 3
        assert sequential.bytes_shipped == 3 * batched.bytes_shipped

    def test_memo_does_not_leak_across_queries(self, setting):
        universe, __ = setting
        source = AceRepository(universe)
        mediator = Mediator([source])
        mediator.find_genes()
        first = mediator.cost.bytes_shipped
        source.advance(5)  # the source moves on ...
        rows = mediator.find_genes()  # ... and the next query sees it
        assert {row.accession for row in rows} \
            == {a for a in source.accessions()
                if mediatable(source, a)}
        assert mediator.cost.bytes_shipped > first

    def test_batch_results_match_single_lookups(self, setting):
        __, sources = setting
        mediator = Mediator(sources)
        accessions = sources[0].accessions()[:2]
        batch = mediator.genes(accessions)
        for accession in accessions:
            single = mediator.gene(accession)
            assert [v.source for v in batch[accession]] \
                == [v.source for v in single]


def mediatable(source, accession):
    """Accessions whose record parses to a DNA-bearing gene view."""
    from repro.etl.wrappers import wrapper_for

    wrapper = wrapper_for(source.name)
    for record in wrapper.parse_snapshot(source.snapshot()):
        if record.accession == accession and record.dna is not None:
            return True
    return False
