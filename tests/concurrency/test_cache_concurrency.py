"""Cache-invalidation-vs-concurrent-read interleavings, replayable.

A reader racing a delta must see either the pre-delta entry or a miss —
never a torn entry — and once the invalidation lands, every later read
misses.  Duplicate delta delivery (a monitor resend) must be idempotent.
"""

import pytest

from repro.etl.delta import Delta
from repro.mediator import CachedMediator, QueryCache
from repro.mediator.cache import extent_key, record_key
from repro.sources import (
    EmblRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from tests.concurrency.scheduler import (
    DeterministicPool,
    Interleaver,
    all_interleavings,
)


def _delta(source="GenBank", accession="X1", operation="update"):
    return Delta(source=source, accession=accession, operation=operation,
                 before="old", after="new", timestamp=1)


def _seeded_cache():
    cache = QueryCache(max_entries=8)
    cache.put(("gene", "X1"), ["view-of-X1"],
              {record_key("GenBank", "X1")})
    cache.put(("gene", "Y2"), ["view-of-Y2"],
              {record_key("GenBank", "Y2")})
    cache.put(("find_genes",), ["extent-answer"],
              {extent_key("GenBank"), extent_key("EMBL")})
    return cache


class TestInvalidationVsRead:
    def test_reader_sees_entry_or_miss_in_every_interleaving(self):
        def reader(cache, observed):
            yield
            entry = cache.get(("gene", "X1"))
            observed.append(None if entry is None else list(entry.answer))
            yield

        def invalidator(cache):
            yield
            cache.invalidate(_delta(accession="X1"))
            yield

        for order in all_interleavings([3, 3]):
            cache = _seeded_cache()
            observed = []
            Interleaver(schedule=list(order)).run(
                [reader(cache, observed), invalidator(cache)])
            # Atomic outcomes only: the pre-delta answer or a miss.
            assert observed in ([["view-of-X1"]], [None])
            # The invalidation always lands; unrelated entries survive.
            assert ("gene", "X1") not in cache._entries
            assert ("gene", "Y2") in cache._entries
            assert cache.get(("gene", "X1")) is None

    def test_extent_entries_fall_to_any_delta_of_their_source(self):
        cache = _seeded_cache()
        cache.invalidate(_delta(source="EMBL", accession="Q9"))
        entries = cache._entries
        assert ("find_genes",) not in entries   # depends on EMBL's extent
        assert ("gene", "X1") in entries        # GenBank record untouched
        assert ("gene", "Y2") in entries

    def test_duplicate_delivery_is_idempotent(self):
        cache = _seeded_cache()
        first = cache.invalidate(_delta(accession="X1"))
        second = cache.invalidate(_delta(accession="X1"))
        # First delivery evicts the X1 record entry plus the extent
        # entry (a GenBank delta changes GenBank's extent); the resend
        # finds nothing left to evict.
        assert (first, second) == (2, 0)
        assert cache.stats.invalidations == 2
        assert ("gene", "Y2") in cache._entries

    def test_interleaved_duplicate_deliveries_evict_exactly_once(self):
        def deliverer(cache, counts, index):
            yield
            counts[index] = cache.invalidate(_delta(accession="X1"))

        for order in all_interleavings([2, 2]):
            cache = _seeded_cache()
            counts = [None, None]
            Interleaver(schedule=list(order)).run(
                [deliverer(cache, counts, 0), deliverer(cache, counts, 1)])
            assert sorted(counts) == [0, 2]
            assert cache.stats.invalidations == 2


class TestCachedMediatorUnderPermutedPools:
    def _cached(self, seed):
        universe = Universe(seed=5, size=18)
        timeline = VirtualClock()
        sources = [GenBankRepository(universe), EmblRepository(universe)]
        return CachedMediator(
            sources, timeline=timeline,
            pool=DeterministicPool(seed=seed, max_workers=2),
        )

    def test_hits_and_rows_identical_across_pool_orders(self, seed):
        reference = None
        for pool_seed in range(seed, seed + 5):
            cached = self._cached(pool_seed)
            first = cached.find_genes()
            second = cached.find_genes()
            observed = (
                [(row.source, row.accession) for row in first],
                [(row.source, row.accession) for row in second],
                first.from_cache, second.from_cache,
                cached.cost.cache_hits, cached.cost.cache_misses,
            )
            if reference is None:
                reference = observed
            assert observed == reference
        assert reference[2] is False and reference[3] is True

    def test_lru_eviction_is_bounded_and_counted(self):
        cache = QueryCache(max_entries=2)
        for index in range(4):
            cache.put(("gene", str(index)), [index],
                      {record_key("GenBank", str(index))})
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert list(cache._entries) == [("gene", "2"), ("gene", "3")]

    def test_get_refreshes_lru_order(self):
        cache = QueryCache(max_entries=2)
        cache.put(("a",), [1], {record_key("S", "a")})
        cache.put(("b",), [2], {record_key("S", "b")})
        assert cache.get(("a",)) is not None   # a becomes most recent
        cache.put(("c",), [3], {record_key("S", "c")})
        assert ("a",) in cache._entries
        assert ("b",) not in cache._entries

    def test_zero_capacity_rejected(self):
        from repro.errors import MediatorError

        with pytest.raises(MediatorError):
            QueryCache(max_entries=0)
