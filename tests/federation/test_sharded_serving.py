"""ShardedFederationServer: routed serving, fusion, and determinism.

Beyond plumbing, two properties matter: the whole scatter-gather run
is bit-reproducible (same seed, same results, to the float), and
adding shards adds serving capacity under a saturating workload — the
claim the A12 ablation quantifies.
"""

import pytest

from repro.errors import FederationError
from repro.federation import (
    ShardMap,
    ShardedFederationServer,
    sharded_federation,
)
from repro.mediator import CachedMediator, Mediator, MediatedBatch
from repro.mediator.pool import SequentialPool
from repro.serving import (
    FederationServer,
    Request,
    summarize,
    synthetic_workload,
)
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    Universe,
)


def _request(kind, arrival=0.0, **params):
    return Request(kind=kind, params=params, arrival=arrival)


class TestConstruction:
    def test_server_count_must_match(self):
        server, *__ = sharded_federation(2)
        with pytest.raises(FederationError):
            ShardedFederationServer(ShardMap(("B", "M")), server.servers)

    def test_servers_must_share_a_clock(self):
        first, *__ = sharded_federation(2)
        second, *__ = sharded_federation(2)
        with pytest.raises(FederationError):
            ShardedFederationServer(
                first.shard_map, [first.servers[0], second.servers[1]])


class TestRouting:
    def test_gene_request_reaches_one_shard(self):
        server, shard_map, accessions, __ = sharded_federation(4)
        accession = accessions[0]
        owner = shard_map.shard_of(accession)
        routed = server._route(_request("gene", accession=accession))
        assert [shard for shard, __ in routed] == [owner]

    def test_genes_request_reaches_owning_shards_only(self):
        server, shard_map, accessions, __ = sharded_federation(4)
        wanted = accessions[:6]
        routed = server._route(_request("genes", accessions=wanted))
        shards = [shard for shard, __ in routed]
        assert shards == sorted(set(shard_map.split(wanted)))
        regrouped = [a for __, params in routed
                     for a in params["accessions"]]
        assert sorted(regrouped) == sorted(set(wanted))

    def test_find_genes_request_reaches_every_shard(self):
        server, *__ = sharded_federation(4)
        routed = server._route(_request("find_genes", min_length=1))
        assert [shard for shard, __ in routed] == [0, 1, 2, 3]


class TestServing:
    def test_results_come_back_in_input_order(self):
        server, __, accessions, __ = sharded_federation(3)
        requests = [
            _request("gene", arrival=1.0, accession=accessions[3]),
            _request("find_genes", arrival=0.0, min_length=1),
            _request("genes", arrival=0.5, accessions=accessions[:5]),
        ]
        results = server.serve(requests)
        assert [result.request.kind for result in results] == \
            ["gene", "find_genes", "genes"]

    def test_fused_batch_has_caller_key_order(self):
        server, __, accessions, __ = sharded_federation(3)
        wanted = list(reversed(accessions[:6]))
        result = server.submit(_request("genes", accessions=wanted))
        assert list(result.answer) == wanted

    def test_fused_timing_is_the_gather_barrier(self):
        server, __, accessions, __ = sharded_federation(3)
        result = server.submit(_request("find_genes", min_length=1))
        # The client waited for the slowest shard: fused completion is
        # the max over parts, and latency is non-negative.
        assert result.completed >= result.started >= 0.0
        assert result.latency >= 0.0
        assert any(key.startswith("shard")
                   for key in result.health.outcomes)

    def test_single_shard_fusion_is_passthrough(self):
        server, __, accessions, __ = sharded_federation(4)
        result = server.submit(_request("gene", accession=accessions[0]))
        assert result.request.params["accession"] == accessions[0]
        assert not any(key.startswith("shard")
                       for key in result.health.outcomes)

    def test_serve_advances_the_shared_clock_once(self):
        server, __, accessions, timeline = sharded_federation(2)
        start = timeline.now()
        requests = synthetic_workload(accessions, count=20, load_factor=2.0,
                                      capacity=4, mean_service=3.0, seed=5)
        results = server.serve(requests)
        makespan = max(result.completed for result in results)
        assert timeline.now() - start == pytest.approx(makespan)


def _keys(rows):
    return [(row.source, row.accession, row.name, row.sequence_text)
            for row in rows]


class TestShardedEqualsUnsharded:
    """The bit-identity oracle on the path production runs.

    The macro simulator and the wall-clock benchmark serve through
    ``ShardedFederationServer``; its ``_route`` / ``_fuse`` is the one
    routing and fusion in the tree.  The contract, on the calibrated
    fixture with hedge replicas and default protections in place: with
    faults off, every served answer equals the answer of one unsharded
    mediator over the same universe."""

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_served_answers_match_one_unsharded_mediator(self, shards):
        server, *__ = sharded_federation(shards, seed=71, size=48,
                                         fail_rate=0.0, slow_rate=0.0)
        universe = Universe(seed=71, size=48)
        repositories = [GenBankRepository(universe),
                        EmblRepository(universe),
                        AceRepository(universe)]
        single = Mediator(repositories)
        union = sorted({accession for repository in repositories
                        for accession in repository.accessions()})

        for accession in union[::7]:
            served = server.submit(_request("gene", accession=accession))
            assert _keys(served.answer) == _keys(single.gene(accession))

        wanted = list(reversed(union[::5]))  # spans every shard
        served = server.submit(_request("genes", accessions=wanted))
        flat = single.genes(wanted)
        assert list(served.answer) == list(flat) == wanted
        for accession in wanted:
            assert _keys(served.answer[accession]) == _keys(flat[accession])

        served = server.submit(_request("find_genes", min_length=1))
        assert _keys(served.answer) == _keys(single.find_genes(min_length=1))
        assert served.answer.health.complete


    @staticmethod
    def _sources():
        universe = Universe(seed=71, size=48)
        return [GenBankRepository(universe), EmblRepository(universe),
                AceRepository(universe)]

    def _asker(self, stack):
        """*stack*'s way to answer one request, over fault-free sources."""
        if stack == "Mediator":
            return Mediator(self._sources()).answer
        if stack.startswith("CachedMediator"):
            cached = CachedMediator(self._sources())

            def ask(request):
                if stack.endswith("hit"):
                    cached.answer(request)
                answer = cached.answer(request)
                assert answer.from_cache == stack.endswith("hit")
                return answer
            return ask
        if stack == "FederationServer":
            server = FederationServer(Mediator(self._sources()))
            return lambda request: server.serve([request])[0].answer
        shards = int(stack.rpartition("-")[2])
        server, *__ = sharded_federation(shards, seed=71, size=48,
                                         fail_rate=0.0, slow_rate=0.0)
        return lambda request: server.submit(request).answer

    @pytest.mark.parametrize("kind", ["gene", "genes", "find_genes"])
    @pytest.mark.parametrize("stack", [
        "Mediator", "CachedMediator-miss", "CachedMediator-hit",
        "FederationServer", "Sharded-1", "Sharded-2", "Sharded-4"])
    def test_every_layer_answers_like_the_sequential_mediator(self, stack,
                                                              kind):
        """The spine's law: each layer's one ``answer`` equals the plain
        sequential mediator's, kind by kind."""
        reference = Mediator(self._sources(), pool=SequentialPool())
        union = sorted({accession for source in self._sources()
                        for accession in source.accessions()})
        requests = {
            "gene": [Request("gene", {"accession": accession})
                     for accession in union[::9] + ["GA-none"]],
            "genes": [Request("genes", {"accessions": batch})
                      for batch in (list(reversed(union[::5])),
                                    union[:3] + union[:2], [])],
            "find_genes": [Request("find_genes", filters) for filters in (
                {}, {"min_length": 200}, {"contains_motif": "ACGT"},
                {"organism": "Escherichia coli", "name_prefix": "t"})],
        }[kind]
        ask = self._asker(stack)
        for request in requests:
            got, want = ask(request), reference.answer(request)
            assert type(got) is type(want) is request.shape
            assert got.health.complete
            if request.shape is MediatedBatch:
                assert list(got) == list(want)
                got, want = ([view for views in answer.values()
                              for view in views] for answer in (got, want))
            assert _keys(got) == _keys(want), (stack, request.params)


class TestDeterminismAndScaling:
    def test_identical_seeds_replay_bit_for_bit(self):
        outcomes = []
        for __ in range(2):
            server, __m, accessions, __t = sharded_federation(4)
            requests = synthetic_workload(
                accessions, count=40, load_factor=8.0, capacity=4,
                mean_service=3.0, seed=13, batch_size=1)
            results = server.serve(requests)
            outcomes.append([
                (result.shed, result.shed_reason, result.started,
                 result.completed, result.queue_wait,
                 len(result.answer) if not result.shed else 0)
                for result in results
            ])
        assert outcomes[0] == outcomes[1]

    def test_adding_shards_adds_goodput_under_saturation(self):
        goods = {}
        for shards in (1, 4):
            server, __, accessions, __t = sharded_federation(shards)
            requests = synthetic_workload(
                accessions, count=120, load_factor=16.0, capacity=4,
                mean_service=3.0, seed=9, batch_size=1)
            report = summarize(server.serve(requests), budget=25.0)
            goods[shards] = report["good"]
        assert goods[4] > goods[1] * 1.5
