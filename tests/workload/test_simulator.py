"""The macro soak: one scaled-down day through the whole stack.

This is the tier-1 cross-layer integration gate: BiQL sessions, the
sharded serving tier, per-shard answer caches, scheduled outages, ETL
churn, and the WAL-shipped follower all run together, deterministically,
under the harness seed, as a schedule of the source driver whose
standing invariants hold after every step.
"""

import json

import pytest

from repro.errors import BiqlError, OverloadError, ReproError
from repro.lang.biql import BiqlSession
from repro.mediator.cache import QueryCache
from repro.sim.sources import drive
from repro.workload import (
    DiurnalPhase,
    MacroSpec,
    build_macro_federation,
    run_macro,
)
from tests.concurrency.scheduler import harness_seed


def soak_spec(seed=None) -> MacroSpec:
    """Smaller than ``MacroSpec.quick``: a three-epoch day that still
    exercises every layer (outage included)."""
    return MacroSpec(
        name="soak",
        seed=harness_seed() if seed is None else seed,
        shards=2, size=18, users=60,
        phases=(DiurnalPhase("calm", 1, 0.8),
                DiurnalPhase("burst", 1, 3.0),
                DiurnalPhase("calm-again", 1, 1.0)),
        epoch_length=12.0, capacity=3, cache_entries=128,
        etl_steps=2, ship_every=2, biql_per_epoch=1,
        faults=(
            # The window must outlive the epoch's serve makespan *plus*
            # the earlier monitors' sweep costs, or the guarded poll
            # runs after the outage lifted and the staleness bound
            # never grows.
            (1, ("outage", "shard0:GenBank", 45.0, 1.0)),
            # The replica link is cut across the epoch-1 catch-up round
            # and heals before the end-of-day convergence check.
            (1, ("partition", 40.0, 0.5)),
        ),
    )


@pytest.fixture(scope="module")
def soak_payload():
    return run_macro(soak_spec())


class TestSoak:
    def test_the_day_actually_served_traffic(self, soak_payload):
        overall = soak_payload["overall"]
        assert overall["offered"] > 30
        assert overall["served"] > 0
        assert 0.0 < overall["goodput_ratio"] <= 1.0

    def test_every_phase_reports(self, soak_payload):
        assert set(soak_payload["phases"]) == {"calm", "burst",
                                               "calm-again"}
        for stats in soak_payload["phases"].values():
            assert stats["offered"] > 0

    def test_cache_works_across_epochs(self, soak_payload):
        cache = soak_payload["cache"]
        assert cache["hits"] > 0
        assert cache["misses"] > 0
        assert 0.0 < cache["hit_rate"] < 1.0

    def test_etl_churn_invalidates_precisely(self, soak_payload):
        assert soak_payload["cache"]["invalidations"] > 0

    def test_outage_grows_the_staleness_bound(self, soak_payload):
        # The epoch-1 outage spans the cache sync, so at least one
        # sweep leaves a source suspect and the bound keeps growing.
        assert soak_payload["staleness"]["max"] > \
            soak_payload["spec"]["epoch_length"]

    def test_replica_ships_and_converges(self, soak_payload):
        replica = soak_payload["replica"]
        assert replica["applied_statements"] > 0
        assert replica["rejected_shipments"] == 0
        assert replica["converged"] is True
        assert replica["lag_max"] > 0.0

    def test_partition_drops_rounds_and_the_drill_fences(self,
                                                         soak_payload):
        # The epoch-1 window swallows that epoch's catch-up round, and
        # the end-of-day failover drill's deposed-epoch straggler is
        # fenced — yet the replica still converges after the heal.
        replica = soak_payload["replica"]
        assert replica["partition_drops"] >= 1
        assert replica["failover_drills"] == 1
        assert replica["shipments_fenced"] == 1
        assert replica["epoch"] == 2
        assert replica["converged"] is True
        assert soak_payload["spec"]["partitions"] == 1

    def test_biql_statements_ran(self, soak_payload):
        biql = soak_payload["biql"]
        assert biql["run"] + biql["refused"] == 3

    def test_headline_is_complete(self, soak_payload):
        assert set(soak_payload["headline"]) == {
            "goodput_ratio", "p50_latency", "p99_latency", "shed_rate",
            "cache_hit_rate", "staleness_max", "replica_lag_max",
            "replica_converged",
        }

    def test_tenancy_is_multi(self, soak_payload):
        assert soak_payload["workload"]["active_tenants"] > 10


class TestDeterminism:
    def test_two_runs_serialize_identically(self):
        spec = soak_spec()
        first = json.dumps(run_macro(spec), sort_keys=True)
        second = json.dumps(run_macro(spec), sort_keys=True)
        assert first == second

    def test_the_seed_matters(self, soak_payload):
        other = run_macro(soak_spec(seed=harness_seed() + 17))
        assert (json.dumps(other, sort_keys=True)
                != json.dumps(soak_payload, sort_keys=True))


class TestFederationWiring:
    def test_shards_share_one_clock(self, tmp_path):
        world = build_macro_federation(soak_spec(), str(tmp_path))
        assert world.server.timeline is world.clock
        for mediator in world.mediators:
            assert mediator.timeline is world.clock
        assert world.follower.timeline is world.clock

    def test_sharded_admit_inline_consults_every_shard(self, tmp_path):
        world = build_macro_federation(soak_spec(), str(tmp_path))
        # Fresh federation: nothing queued, nothing browned out.
        assert world.server.admit_inline() is None
        # Fill one shard's queue: inline work must now be refused.
        shard = world.server.servers[0]
        for index in range(shard.policy.queue_capacity):
            shard.queue.push(object(), priority=0, seq=index)
        assert world.server.admit_inline() == "queue_full"

    def test_accessions_span_every_shard(self, tmp_path):
        world = build_macro_federation(soak_spec(), str(tmp_path))
        shard_map = world.server.shard_map
        owners = {shard_map.shard_of(accession)
                  for repository in world.repositories
                  for accession in repository.accessions()}
        assert owners == set(range(shard_map.count))

    def test_proxies_are_keyed_as_a_scatter_names_them(self, tmp_path):
        world = build_macro_federation(soak_spec(), str(tmp_path))
        assert sorted(world.proxies) == [
            f"shard{shard}:{source}" for shard in range(2)
            for source in ("AceDB", "EMBL", "GenBank")]
        assert len(world.mediators) == 2

    def test_a_churn_advances_each_base_repository_once(self, tmp_path):
        world = build_macro_federation(soak_spec(), str(tmp_path))
        genbank = world.repositories[0]
        drive(world, [("churn", "GenBank", 2)])
        assert len(genbank._log) == 2
        assert [len(repository._log)
                for repository in world.repositories[1:]] == [0, 0]


class TestStandingInvariants:
    """``run_macro`` raises on any broken invariant, so a day that
    returns its payload held every one after every step."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("day", [soak_spec, MacroSpec.quick],
                             ids=["soak", "quick"])
    def test_a_day_holds_every_invariant(self, day, seed):
        assert run_macro(day(seed=seed))["replica"]["converged"] is True

    def test_a_cache_that_never_invalidates_fails_the_day(self,
                                                          monkeypatch):
        monkeypatch.setattr(QueryCache, "invalidate",
                            lambda self, delta: 0)
        # A stale part of a scatter shows as rows lost from a live
        # source, a wholly cached answer as one that differs from truth.
        with pytest.raises(ReproError, match=r"step \d+ serve: "):
            run_macro(soak_spec())

    def test_a_failing_step_fails_the_day(self, monkeypatch):
        def failing(self, text):
            raise BiqlError(f"cannot parse {text!r}")

        monkeypatch.setattr(BiqlSession, "run", failing)
        with pytest.raises(ReproError, match=r"step \d+ biql: BiqlError"):
            run_macro(soak_spec())

    def test_a_refused_statement_does_not(self, monkeypatch):
        def refused(self, text):
            raise OverloadError("queue_full")

        monkeypatch.setattr(BiqlSession, "run", refused)
        assert run_macro(soak_spec())["biql"] == {"run": 0, "refused": 3}
