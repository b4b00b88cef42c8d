"""Routing and fusion on the served path: bit-reproducible answers.

The headline contract: with fault injection off, the fused answer of
an N-shard federation is *identical* — same rows, same order, same
payloads — to the single-mediator answer over the same universe.
Sharding must be invisible to correctness, visible only to capacity.

There is one scatter-gather (``ShardedFederationServer._route`` /
``_fuse`` over ``fuse_rows`` / ``fuse_batches`` / ``merge_health``);
every question here is asked of it through ``submit(Request(...))``,
over plain ``FederationServer(Mediator)`` shards.
"""

from repro.federation import (
    ShardMap,
    ShardSlice,
    ShardedFederationServer,
    merge_health,
)
from repro.mediator import Mediator
from repro.mediator.mediator import QueryHealth
from repro.serving import FederationServer, Request
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)


def _repositories(seed, size):
    universe = Universe(seed=seed, size=size)
    repositories = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    union = sorted({accession for repository in repositories
                    for accession in repository.accessions()})
    return repositories, union


def federation(shards, *, seed=11, size=24, latency=0.0):
    """A clean (fault-free) N-shard served federation: (server,
    accessions, timeline).  With *latency* every source call costs that
    much virtual time, so scatter parallelism is visible on the clock."""
    repositories, union = _repositories(seed, size)
    timeline = VirtualClock()
    shard_map = ShardMap.for_accessions(union, shards)
    servers = []
    for shard in range(shard_map.count):
        sources = [ShardSlice(repository, shard_map, shard)
                   for repository in repositories]
        if latency:
            sources = [FaultyRepository(source, timeline,
                                        seed=10 * shard + index)
                       for index, source in enumerate(sources, start=1)]
            for proxy in sources:
                proxy.add_latency(latency, slow_rate=0.0)
        servers.append(FederationServer(
            Mediator(sources, timeline=timeline)))
    return ShardedFederationServer(shard_map, servers), union, timeline


def single(*, seed=11, size=24):
    """The unsharded oracle: one mediator over the same universe."""
    repositories, __ = _repositories(seed, size)
    return Mediator(repositories)


def ask(server, kind, **params):
    return server.submit(Request(kind=kind, params=params)).answer


def spy_on_serve(server):
    """Record the subrequest list every shard's ``serve`` is handed."""
    seen = [[] for __ in server.servers]
    for shard, shard_server in enumerate(server.servers):
        def serve(requests, shard=shard, inner=shard_server.serve):
            seen[shard].append(list(requests))
            return inner(requests)
        shard_server.serve = serve
    return seen


def _keys(rows):
    return [(row.source, row.accession, row.name, row.sequence_text)
            for row in rows]


class TestPointLookups:
    def test_gene_routes_to_the_owner_only(self):
        server, accessions, __ = federation(3)
        accession = accessions[0]
        owner = server.shard_map.shard_of(accession)
        seen = spy_on_serve(server)
        before = [shard.mediator.cost.source_requests
                  for shard in server.servers]
        ask(server, "gene", accession=accession)
        after = [shard.mediator.cost.source_requests
                 for shard in server.servers]
        assert after[owner] > before[owner]
        for shard, (was, now) in enumerate(zip(before, after)):
            if shard == owner:
                assert [len(batch) for batch in seen[shard]] == [1]
            else:
                assert now == was  # untouched shards did zero work
                assert seen[shard] == []  # their serve was not called

    def test_gene_matches_the_unsharded_answer(self):
        sharded, accessions, __ = federation(4)
        oracle = single()
        for accession in accessions[:6]:
            assert _keys(ask(sharded, "gene", accession=accession)) == \
                _keys(oracle.gene(accession))


class TestScatterGather:
    def test_genes_fuses_in_caller_key_order(self):
        server, accessions, __ = federation(3)
        wanted = list(reversed(accessions[:7]))
        batch = ask(server, "genes", accessions=wanted)
        assert list(batch) == wanted
        assert batch.health.complete

    def test_genes_matches_the_unsharded_answer(self):
        sharded, accessions, __ = federation(4)
        wanted = accessions[:9]
        fused = ask(sharded, "genes", accessions=wanted)
        flat = single().genes(wanted)
        assert list(fused) == list(flat)
        for accession in wanted:
            assert _keys(fused[accession]) == _keys(flat[accession])

    def test_genes_reaches_the_owning_shards_only(self):
        server, accessions, __ = federation(4)
        wanted = accessions[:3]  # one contiguous range: not every shard
        owners = set(server.shard_map.split(wanted))
        assert len(owners) < server.count
        seen = spy_on_serve(server)
        ask(server, "genes", accessions=wanted)
        for shard in range(server.count):
            assert bool(seen[shard]) == (shard in owners)

    def test_find_genes_matches_the_unsharded_answer(self):
        sharded, __, __ = federation(4)
        assert _keys(ask(sharded, "find_genes", min_length=1)) == \
            _keys(single().find_genes(min_length=1))

    def test_find_genes_is_source_major_then_shard_ascending(self):
        server, __, __ = federation(3)
        rows = ask(server, "find_genes", min_length=1)
        names = server.servers[0].source_names
        position = [(names.index(row.source),
                     server.shard_map.shard_of(row.accession))
                    for row in rows]
        assert position == sorted(position)
        assert {shard for __, shard in position} == {0, 1, 2}

    def test_scatter_advances_the_clock_by_the_max_shard(self):
        server, accessions, timeline = federation(3, latency=1.0)
        spent = [0.0] * server.count
        for shard, shard_server in enumerate(server.servers):
            def serve(requests, shard=shard, inner=shard_server.serve):
                began = timeline.now()
                try:
                    return inner(requests)
                finally:
                    spent[shard] = timeline.now() - began
            shard_server.serve = serve
        start = timeline.now()
        ask(server, "genes", accessions=accessions)
        elapsed = timeline.now() - start
        # Parallel in virtual time: one serve costs the slowest shard,
        # not the sum over shards.
        assert min(spent) > 0
        assert elapsed == max(spent) < sum(spent)
        alone, __, alone_timeline = federation(1, latency=1.0)
        alone_start = alone_timeline.now()
        ask(alone, "genes", accessions=accessions)
        assert 0 < elapsed < alone_timeline.now() - alone_start


class TestHealthMerging:
    def test_outcomes_are_shard_prefixed(self):
        server, accessions, __ = federation(2)
        batch = ask(server, "genes", accessions=accessions)
        assert batch.health.outcomes
        assert all(key.startswith("shard") and ":" in key
                   for key in batch.health.outcomes)

    def test_merge_keeps_worst_case_timing_and_shed(self):
        slow = QueryHealth()
        slow.elapsed = 9.0
        slow.queue_wait = 2.0
        shed = QueryHealth()
        shed.shed = True
        shed.shed_reason = "queue_full"
        shed.deadline_hit = True
        merged = merge_health([(0, slow), (1, shed)])
        assert merged.elapsed == 9.0
        assert merged.queue_wait == 2.0
        assert merged.shed and merged.shed_reason == "queue_full"
        assert merged.deadline_hit

    def test_shed_is_sticky_with_the_lowest_shards_reason(self):
        first, second = QueryHealth(), QueryHealth()
        first.shed, first.shed_reason = True, "deadline"
        second.shed, second.shed_reason = True, "brownout"
        merged = merge_health([(1, first), (2, second)])
        assert merged.shed_reason == "deadline"
        assert not merged.complete
