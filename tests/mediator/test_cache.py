"""The delta-invalidated answer cache, end to end with live monitors."""

from dataclasses import replace

import pytest

from repro.errors import MediatorError
from repro.mediator import CachedMediator, MediationCost, QueryCache
from repro.mediator.cache import extent_key, normalize_query, record_key
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)


def _cached(seed=11, size=20, faulty=False, **options):
    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    repositories = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    if faulty:
        repositories = [
            FaultyRepository(repository, timeline, seed=index)
            for index, repository in enumerate(repositories, start=1)
        ]
    return timeline, repositories, CachedMediator(
        repositories, timeline=timeline, **options)


def _touch(repository, accession):
    """Deterministically update one record in place (the advance() idiom)."""
    record = repository._records[accession]
    changed = record.bumped(
        description=(record.description or "") + " (touched)")
    repository._clock += 1
    repository._records[accession] = replace(
        changed, timestamp=repository._clock)
    repository._emit("update", accession)


def _keys(rows):
    return [(row.source, row.accession) for row in rows]


class TestHitsAndMisses:
    def test_second_identical_query_hits_without_touching_sources(self):
        timeline, repositories, cached = _cached()
        first = cached.find_genes()
        requests = cached.cost.source_requests
        second = cached.find_genes()
        assert cached.cost.source_requests == requests
        assert (first.from_cache, second.from_cache) == (False, True)
        assert _keys(second) == _keys(first)
        assert cached.cost.cache_misses == 1
        assert cached.cost.cache_hits == 1

    def test_served_answers_are_fresh_copies(self):
        timeline, repositories, cached = _cached()
        cached.find_genes()
        served = cached.find_genes()
        served.clear()
        assert len(cached.find_genes()) > 0

    def test_distinct_filters_are_distinct_entries(self):
        timeline, repositories, cached = _cached()
        cached.find_genes()
        cached.find_genes(min_length=1)
        assert cached.cost.cache_misses == 2
        assert len(cached.cache) == 2

    def test_none_filters_normalize_away(self):
        assert (normalize_query("find_genes", organism=None, min_length=3)
                == normalize_query("find_genes", min_length=3))

    def test_gene_and_batch_lookups_cache_too(self):
        timeline, repositories, cached = _cached()
        accessions = list(repositories[0].accessions()[:2])
        single = cached.gene(accessions[0])
        again = cached.gene(accessions[0])
        assert (single.from_cache, again.from_cache) == (False, True)
        batch = cached.genes(accessions)
        batch_again = cached.genes(accessions)
        assert (batch.from_cache, batch_again.from_cache) == (False, True)
        assert {_keys(views)[0][1] for views in batch_again.values()
                if views} <= set(accessions)

    def test_predicate_queries_bypass_the_cache(self):
        timeline, repositories, cached = _cached()
        cached.find_genes(predicate=lambda row: True)
        cached.find_genes(predicate=lambda row: True)
        assert len(cached.cache) == 0
        assert cached.cost.cache_hits == 0


class TestPreciseInvalidation:
    def test_point_delta_evicts_exactly_the_touched_lookup(self):
        timeline, repositories, cached = _cached()
        embl = repositories[1]
        touched, untouched = embl.accessions()[:2]
        cached.gene(touched)
        cached.gene(untouched)
        assert len(cached.cache) == 2
        _touch(embl, touched)
        deltas = cached.sync()
        assert [(delta.source, delta.accession) for delta in deltas] == [
            ("EMBL", touched)]
        entries = cached.cache._entries
        assert normalize_query("gene", accession=touched) not in entries
        assert normalize_query("gene", accession=untouched) in entries
        # The survivor still serves from cache; the evictee re-mediates.
        assert cached.gene(untouched).from_cache
        refreshed = cached.gene(touched)
        assert not refreshed.from_cache
        assert any("(touched)" in (row.description or "")
                   for row in refreshed if row.source == "EMBL")

    def test_extent_entries_fall_while_point_lookups_survive(self):
        timeline, repositories, cached = _cached()
        genbank, embl = repositories[0], repositories[1]
        cached.find_genes()
        unrelated = embl.accessions()[0]
        cached.gene(unrelated)
        _touch(genbank, genbank.accessions()[0])
        cached.sync()
        entries = cached.cache._entries
        assert normalize_query("find_genes") not in entries
        assert normalize_query("gene", accession=unrelated) in entries
        assert cached.cost.cache_invalidations == 1

    def test_degraded_answers_are_never_cached(self):
        timeline, repositories, cached = _cached(faulty=True)
        repositories[0].fail_with_rate(1.0)
        degraded = cached.find_genes()
        assert degraded.health.degraded
        assert len(cached.cache) == 0
        assert cached.cost.cache_misses == 1


class TestSuspectSources:
    def test_failed_poll_bypasses_without_flushing(self):
        timeline, repositories, cached = _cached(faulty=True)
        embl = repositories[1]
        answer = cached.find_genes()
        assert answer.health.complete
        # EMBL's monitor poll fails outright (query AND snapshot down).
        embl.fail_next(1, "query_accessions", "snapshot")
        cached.sync()
        assert cached.suspect_sources == {"EMBL"}
        bypassed = cached.find_genes()
        assert bypassed.from_cache is False      # dependent entry bypassed
        assert len(cached.cache) >= 1            # ... but never flushed
        cached.sync()                            # clean sweep lifts suspicion
        assert cached.suspect_sources == set()
        assert cached.find_genes().from_cache

    def test_an_entry_of_a_suspect_source_counts_as_a_miss(self):
        timeline, repositories, cached = _cached(faulty=True)
        cached.find_genes()
        repositories[1].fail_next(1, "query_accessions", "snapshot")
        cached.sync()
        hits, misses = cached.cost.cache_hits, cached.cost.cache_misses
        assert cached.find_genes().from_cache is False
        assert (cached.cost.cache_hits, cached.cost.cache_misses) == (
            hits, misses + 1)
        assert (cached.cache.stats.hits, cached.cache.stats.misses) == (
            hits, misses + 1)

    def test_staleness_bound_tracks_the_last_clean_sweep(self):
        timeline, repositories, cached = _cached(faulty=True)
        assert cached.staleness_bound() == 0.0
        timeline.advance(12.0)
        assert cached.staleness_bound() == 12.0
        cached.sync()
        assert cached.staleness_bound() == 0.0
        timeline.advance(5.0)
        repositories[1].fail_next(1, "query_accessions", "snapshot")
        cached.sync()  # failed sweep must NOT reset the bound
        assert cached.staleness_bound() == 5.0
        cached.sync()
        assert cached.staleness_bound() == 0.0


class _ExplodingMonitor:
    """A monitor whose ``poll()`` raises instead of failing gracefully.

    Real monitors catch :class:`SourceError` internally and count a
    failed poll; a programming error (or an exotic transport failure)
    escapes that net and used to abort ``sync()`` mid-sweep.
    """

    def __init__(self, inner):
        self.inner = inner

    @property
    def health(self):
        return self.inner.health

    def poll(self):
        raise RuntimeError("monitor crashed mid-sweep")


class TestSweepSurvivesRaisingMonitor:
    def test_raising_poll_marks_suspect_and_finishes_the_sweep(self):
        # Monitors sweep in sorted-name order: AceDB, EMBL, GenBank.
        # EMBL's monitor raises outright; the deltas from the sources
        # on BOTH sides of it must still invalidate their entries.
        timeline, repositories, cached = _cached()
        genbank, __, acedb = repositories
        before = acedb.accessions()[0]
        after = genbank.accessions()[0]
        cached.gene(before)
        cached.gene(after)
        assert len(cached.cache) == 2
        cached.monitors["EMBL"] = _ExplodingMonitor(cached.monitors["EMBL"])
        timeline.advance(3.0)
        _touch(acedb, before)
        _touch(genbank, after)
        deltas = cached.sync()           # must not raise
        assert {(delta.source, delta.accession) for delta in deltas} == {
            ("AceDB", before), ("GenBank", after)}
        entries = cached.cache._entries
        assert normalize_query("gene", accession=before) not in entries
        assert normalize_query("gene", accession=after) not in entries
        assert cached.suspect_sources == {"EMBL"}
        # A raising monitor is a failed sweep: the bound must not reset.
        assert cached.staleness_bound() == 3.0

    def test_sweep_recovers_once_the_monitor_behaves_again(self):
        timeline, repositories, cached = _cached()
        cached.find_genes()
        healthy = cached.monitors["EMBL"]
        cached.monitors["EMBL"] = _ExplodingMonitor(healthy)
        cached.sync()
        assert cached.suspect_sources == {"EMBL"}
        assert cached.find_genes().from_cache is False   # bypassed ...
        assert len(cached.cache) >= 1                    # ... not flushed
        cached.monitors["EMBL"] = healthy
        cached.sync()
        assert cached.suspect_sources == set()
        assert cached.find_genes().from_cache


class TestStalenessBoundEdges:
    def test_empty_cache_still_tracks_the_clock(self):
        timeline, __, cached = _cached()
        assert len(cached.cache) == 0
        assert cached.staleness_bound() == 0.0   # never synced, t=0
        timeline.advance(30.0)
        assert cached.staleness_bound() == 30.0  # no entries needed
        cached.sync()                            # clean sweep, still empty
        assert len(cached.cache) == 0
        assert cached.staleness_bound() == 0.0

    def test_all_entries_suspect_bound_keeps_growing(self):
        timeline, repositories, cached = _cached(faulty=True)
        cached.find_genes()
        assert len(cached.cache) >= 1
        timeline.advance(7.0)
        for repository in repositories:          # every poll fails
            repository.fail_next(1, "query_accessions", "snapshot")
        cached.sync()
        assert cached.suspect_sources == {r.name for r in repositories}
        # Every entry depends on a suspect source: nothing serviceable.
        assert all(not cached._serviceable(cached.cache.get(key))
                   for key in cached.cache._entries)
        assert cached.find_genes().from_cache is False
        timeline.advance(4.0)
        assert cached.staleness_bound() == 11.0  # failed sweeps never reset

    def test_clock_exactly_at_sync_time_bounds_to_zero(self):
        timeline, __, cached = _cached()
        timeline.advance(9.0)
        cached.sync()
        # The clock has not moved past the sweep: the bound is exactly
        # zero, not negative and not the pre-sweep age.
        assert timeline.now() == cached.last_sync
        assert cached.staleness_bound() == 0.0
        cached.find_genes()
        assert cached.find_genes().from_cache    # zero-age entry serves


class TestAccounting:
    def test_counters_fold_into_mediation_cost(self):
        timeline, repositories, cached = _cached(max_entries=1)
        cached.find_genes()                  # miss
        cached.find_genes()                  # hit
        cached.find_genes(min_length=1)      # miss; evicts the first (LRU=1)
        cost = cached.cost
        assert cost.cache_misses == 2
        assert cost.cache_hits == 1
        assert cost.cache_evictions == 1
        assert cost.queries_answered == 2    # hits never reach the mediator

    def test_cost_reset_covers_the_cache_counters(self):
        cost = MediationCost()
        cost.bump("cache_hits", 3)
        snapshot = cost.reset()
        assert snapshot.cache_hits == 3
        assert cost.cache_hits == 0

    def test_cache_requires_positive_capacity(self):
        with pytest.raises(MediatorError):
            QueryCache(max_entries=0)

    def test_provenance_keys_are_well_formed(self):
        assert extent_key("EMBL") == ("extent", "EMBL")
        assert record_key("EMBL", "X1") == ("record", "EMBL", "X1")
