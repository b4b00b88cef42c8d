"""Differential churn: sharded and unsharded caches answer identically.

``test_router.py`` proves a *clean, uncached* federation fuses the
same answer a single mediator gives.  This suite proves the stronger
operational property the macro workload leans on: with per-shard
**answer caches** in front and **ETL deltas in flight**, the sharded
federation — served, as production serves it, through
``ShardedFederationServer`` over ``FederationServer(CachedMediator)``
shards — still answers bit-identically to its unsharded twin (one
``CachedMediator``) at every point of the churn cycle —

- before any churn (cold caches),
- *after* sources advanced but *before* ``sync()`` (both sides serve
  identically-stale cached answers),
- after ``sync()`` drained the deltas into precise invalidations
  (both sides re-fetch fresh rows).

Twins are built from the same universe seed and advanced in lockstep,
so any divergence is a routing/fusion/invalidation bug, not noise.
"""

import random

from repro.federation import ShardMap, ShardSlice, ShardedFederationServer
from repro.mediator.cache import CachedMediator
from repro.serving import FederationServer, Request
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from tests.concurrency.scheduler import harness_seed

SHARDS = 3
SIZE = 30
ROUNDS = 4
QUERIES_PER_ROUND = 8


def _twin(shards: int):
    """One federation twin: same universe seed regardless of shards."""
    universe = Universe(seed=harness_seed() + 11, size=SIZE)
    timeline = VirtualClock()
    repositories = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    union = sorted({accession for repository in repositories
                    for accession in repository.accessions()})
    if shards == 1:
        surface = CachedMediator(repositories, max_entries=4096,
                                 timeline=timeline)
    else:
        shard_map = ShardMap.for_accessions(union, shards)
        surface = ShardedFederationServer(shard_map, [
            FederationServer(CachedMediator(
                [ShardSlice(repository, shard_map, shard)
                 for repository in repositories],
                max_entries=4096, timeline=timeline))
            for shard in range(shard_map.count)
        ])
    return surface, repositories, union


def _caches(surface):
    """Every answer cache behind *surface*, whichever shape we hold."""
    if isinstance(surface, ShardedFederationServer):
        return [server.mediator for server in surface.servers]
    return [surface]


def _ask(surface, kind, **params):
    if isinstance(surface, ShardedFederationServer):
        return surface.submit(Request(kind=kind, params=params)).answer
    return getattr(surface, kind)(**params)


def _mix(rng: random.Random, union, count: int):
    """A seeded query mix as plain data, replayable on either twin."""
    queries = []
    for __ in range(count):
        kind = rng.choice(("gene", "gene", "genes", "find"))
        if kind == "gene":
            queries.append(("gene", rng.choice(union)))
        elif kind == "genes":
            queries.append(("genes",
                            tuple(rng.sample(union, rng.randint(2, 6)))))
        else:
            queries.append(("find", rng.choice(("A", "C", "G", "T", "GA")),
                            rng.choice((0, 10, 40))))
    return queries


def _keys(rows):
    return [(row.source, row.accession, row.name, row.sequence_text)
            for row in rows]


def _answer(surface, query):
    """Execute one query; the result is fully order-sensitive."""
    if query[0] == "gene":
        return ("gene", _keys(_ask(surface, "gene", accession=query[1])))
    if query[0] == "genes":
        batch = _ask(surface, "genes", accessions=list(query[1]))
        return ("genes", [(accession, _keys(rows))
                          for accession, rows in batch.items()])
    __, motif, floor = query
    return ("find", _keys(_ask(surface, "find_genes",
                               contains_motif=motif, min_length=floor)))


def _run_mix(surface, queries):
    return [_answer(surface, query) for query in queries]


def _sync(surface) -> int:
    """Delta count, whichever surface shape we hold."""
    return sum(len(cache.sync()) for cache in _caches(surface))


class TestDifferentialChurn:
    def test_sharded_equals_unsharded_through_the_churn_cycle(self):
        sharded, sharded_repos, union = _twin(SHARDS)
        unsharded, unsharded_repos, twin_union = _twin(1)
        assert union == twin_union
        rng = random.Random(("differential-churn",
                             harness_seed()).__repr__())

        for round_index in range(ROUNDS):
            queries = _mix(rng, union, QUERIES_PER_ROUND)

            # Phase 1: cold/settled — both sides consult sources.
            assert _run_mix(sharded, queries) == \
                _run_mix(unsharded, queries), f"round {round_index}: settled"

            # Phase 2: churn lands, sync has NOT run.  Repeating the
            # exact same queries must hit both caches, so both twins
            # serve the *identically stale* pre-churn answers.
            sharded_repos[round_index % 3].advance(2)
            unsharded_repos[round_index % 3].advance(2)
            stale_sharded = _run_mix(sharded, queries)
            stale_unsharded = _run_mix(unsharded, queries)
            assert stale_sharded == stale_unsharded, \
                f"round {round_index}: in-flight"

            # Phase 3: both sides drain the same delta stream...
            assert _sync(sharded) == _sync(unsharded), \
                f"round {round_index}: delta streams diverged"

            # ...and the re-fetched answers agree again.
            assert _run_mix(sharded, queries) == \
                _run_mix(unsharded, queries), f"round {round_index}: synced"

    def test_the_churn_cycle_actually_exercises_the_caches(self):
        """Guard against a vacuous pass: the cycle above must involve
        real hits, real invalidations, and real deltas on both sides."""
        sharded, sharded_repos, union = _twin(SHARDS)
        unsharded, unsharded_repos, __ = _twin(1)
        rng = random.Random(("differential-churn-stats",
                             harness_seed()).__repr__())
        queries = _mix(rng, union, QUERIES_PER_ROUND)
        _run_mix(sharded, queries)
        _run_mix(unsharded, queries)
        sharded_repos[0].advance(2)
        unsharded_repos[0].advance(2)

        # The repeat is served from cache on both sides.
        answer = unsharded.gene(queries[0][1]) \
            if queries[0][0] == "gene" else None
        _run_mix(sharded, queries)
        _run_mix(unsharded, queries)
        assert all(mediator.cache.stats.hits > 0
                   for mediator in _caches(sharded))
        assert unsharded.cache.stats.hits > 0
        if answer is not None:
            assert answer.from_cache

        # Sync turns the deltas into precise invalidations.
        assert _sync(sharded) > 0
        assert _sync(unsharded) > 0
        assert sum(mediator.cache.stats.invalidations
                   for mediator in _caches(sharded)) > 0
        assert unsharded.cache.stats.invalidations > 0

    def test_churned_rows_really_changed(self):
        """The differential property is only interesting if churn
        changes answers: post-sync rows must differ from the stale
        snapshot for at least one query."""
        unsharded, repos, union = _twin(1)
        everything = ("find", "A", 0)
        before = _answer(unsharded, everything)
        repos[0].advance(3)
        assert _answer(unsharded, everything) == before  # stale hit
        _sync(unsharded)
        assert _answer(unsharded, everything) != before
