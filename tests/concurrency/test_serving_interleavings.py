"""Serving-layer decisions must not depend on scheduling.

Queue/shed/hedge decisions are pure arithmetic over virtual time, so
they must replay bit for bit at any pool width and under any seeded
completion-order permutation — and a shed query must be a pure
no-op against the sources no matter how the workload interleaves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mediator import BreakerPolicy, Mediator, RetryPolicy, ThreadedPool
from repro.serving import (
    BATCH,
    INTERACTIVE,
    MAINTENANCE,
    FederationServer,
    Request,
    ServingPolicy,
    overload_federation,
    synthetic_workload,
)
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from tests.concurrency.scheduler import DeterministicPool, harness_seed


def _served_federation(policy, *, pool=None, latency=2.0,
                       replicas=False, outage=None):
    universe = Universe(seed=71, size=24)
    timeline = VirtualClock()
    proxies = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=1),
        FaultyRepository(EmblRepository(universe), timeline, seed=2),
        FaultyRepository(AceRepository(universe), timeline, seed=3),
        FaultyRepository(SwissProtRepository(universe), timeline, seed=4),
    ]
    for proxy in proxies:
        proxy.add_latency(latency)
    if outage is not None:
        proxies[outage].schedule_outage(0.0, 100_000.0)
    mediator = Mediator(
        proxies,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0,
                                 multiplier=2.0, jitter=0.0,
                                 deadline=40.0),
        breaker_policy=BreakerPolicy(failure_threshold=10 ** 6,
                                     reset_timeout=1.0),
        timeline=timeline,
        pool=pool,
    )
    server = FederationServer(
        mediator, policy,
        replicas=({proxy.name: proxy.inner for proxy in proxies}
                  if replicas else None))
    accession = sorted(proxies[0].accessions())[0]
    return server, mediator, proxies, accession


def _decisions(results):
    """Everything a run decided, rounded for exact comparison."""
    return [
        (result.shed, result.shed_reason, result.from_cache,
         round(result.queue_wait, 9), round(result.latency, 9),
         round(result.completed, 9),
         tuple(sorted(result.health.sources_hedged)),
         tuple(sorted((name, outcome.status)
                      for name, outcome in result.health.outcomes.items())))
        for result in results
    ]


def _train(server, source, durations):
    for duration in durations:
        server.hedgers[source].observe(duration)


class TestHedgeOrderings:
    """The three ways a hedged attempt can land, pinned exactly."""

    def policy(self):
        return ServingPolicy(capacity=4, deadline=None,
                             adaptive_concurrency=False, brownout=False,
                             retry_budget_ratio=None,
                             hedge_min_observations=4)

    def request(self, accession):
        return Request(kind="gene", params={"accession": accession})

    def test_hedge_wins_when_the_replica_is_faster(self):
        server, mediator, proxies, accession = _served_federation(
            self.policy(), replicas=True)
        # Train: past calls were fast, so today's 2.0-unit call is
        # provably in the tail and every source hedges to its clean
        # (zero-latency) replica, which answers instantly.
        for proxy in proxies:
            _train(server, proxy.name, [0.05] * 8)
        result = server.serve([self.request(accession)])[0]
        assert set(result.health.sources_hedged) == \
            set(server.source_names)
        assert mediator.cost.hedges_won == mediator.cost.hedges_issued > 0
        # Elapsed per source = hedge delay + replica time ≈ the p95
        # bound, far under the 2.0 primary — the tail was cut.
        for outcome in result.health.outcomes.values():
            assert outcome.hedge_won
            assert outcome.latency < 2.0

    def test_primary_wins_when_the_tail_is_normal(self):
        server, mediator, proxies, accession = _served_federation(
            self.policy(), replicas=True)
        # Train with realistic durations: 2.0 never exceeds the p95
        # bound, so no hedge is ever issued.
        for proxy in proxies:
            _train(server, proxy.name, [2.0] * 8)
        result = server.serve([self.request(accession)])[0]
        assert result.health.sources_hedged == ()
        assert mediator.cost.hedges_issued == 0
        assert not result.shed

    def test_both_fail_costs_the_slower_of_the_two(self):
        universe = Universe(seed=71, size=24)
        timeline = VirtualClock()
        proxies = [
            FaultyRepository(GenBankRepository(universe), timeline, seed=1),
            FaultyRepository(EmblRepository(universe), timeline, seed=2),
        ]
        for proxy in proxies:
            proxy.add_latency(2.0)
        proxies[0].schedule_outage(0.0, 100_000.0)
        # The replica is *also* dead: a faulty proxy in permanent outage.
        dead_replica = FaultyRepository(GenBankRepository(universe),
                                       timeline, seed=9)
        dead_replica.schedule_outage(0.0, 100_000.0)
        mediator = Mediator(
            proxies,
            retry_policy=RetryPolicy(max_attempts=1, jitter=0.0),
            timeline=timeline,
        )
        server = FederationServer(
            mediator,
            ServingPolicy(capacity=2, deadline=None,
                          adaptive_concurrency=False, brownout=False,
                          retry_budget_ratio=None,
                          hedge_min_observations=4),
            replicas={"GenBank": dead_replica},
        )
        _train(server, "GenBank", [0.05] * 8)
        accession = sorted(proxies[0].accessions())[0]
        result = server.serve([
            Request(kind="gene", params={"accession": accession})])[0]
        outcome = result.health.outcome("GenBank")
        assert outcome.hedged and not outcome.hedge_won
        assert outcome.status == "failed"
        assert mediator.cost.hedges_issued == 1
        assert mediator.cost.hedges_won == 0
        # EMBL still answered: degraded, not empty.
        assert result.health.outcome("EMBL").status == "ok"


class TestSchedulingInvariance:
    """Same seeds → same decisions at any pool width or permutation."""

    def run_with(self, *, max_concurrency=None, pool=None):
        server, mediator, sources, accessions = overload_federation(
            max_concurrency=max_concurrency)
        if pool is not None:
            mediator.pool = pool
        requests = synthetic_workload(accessions, count=60,
                                      load_factor=4.0, capacity=4,
                                      mean_service=3.0, seed=harness_seed())
        results = server.serve(requests)
        cost = mediator.cost
        return _decisions(results), (cost.hedges_issued, cost.hedges_won,
                                     cost.retries, cost.source_exclusions)

    def test_pool_width_does_not_change_decisions(self):
        wide = self.run_with(max_concurrency=4)
        wider = self.run_with(max_concurrency=8)
        assert wide == wider

    def test_seeded_permutations_do_not_change_decisions(self):
        baseline = self.run_with(max_concurrency=4)
        for seed in (0, 1, 2):
            permuted = self.run_with(
                pool=DeterministicPool(seed=seed, max_workers=4))
            assert permuted == baseline

    def test_replay_is_bit_exact(self):
        assert self.run_with(max_concurrency=4) == \
            self.run_with(max_concurrency=4)


class TestAimdConvergence:
    def test_dead_source_converges_identically_across_permutations(self):
        def limits(seed):
            server, mediator, proxies, accession = _served_federation(
                ServingPolicy(capacity=4, deadline=None, brownout=False,
                              hedging=False, retry_budget_ratio=None),
                pool=DeterministicPool(seed=seed, max_workers=4),
                outage=1)
            requests = [Request(kind="gene",
                                params={"accession": accession},
                                arrival=12.0 * step)
                        for step in range(12)]
            server.serve(requests)
            limiter = server.limiters["EMBL"]
            return (round(limiter.limit, 9), limiter.increases,
                    limiter.decreases,
                    {name: round(lim.limit, 9)
                     for name, lim in server.limiters.items()})

        runs = [limits(seed) for seed in (0, 1, 2, 3)]
        assert all(run == runs[0] for run in runs)
        # And the dead source was actually cut while healthy ones
        # kept (or regained) their full width.
        assert runs[0][2] > 0
        assert runs[0][3]["GenBank"] == 4.0


class TestShedPurity:
    """Property: a shed query never touches a source or a budget."""

    @given(st.lists(
        st.tuples(
            st.sampled_from(["gene", "genes", "find_genes"]),
            st.sampled_from([INTERACTIVE, BATCH, MAINTENANCE]),
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=20, deadline=None)
    def test_fully_shed_workload_is_a_source_no_op(self, shape):
        server, mediator, proxies, accession = _served_federation(
            ServingPolicy(capacity=2, deadline=10.0, queue_capacity=0,
                          brownout=False))
        before = [proxy.stats.calls for proxy in proxies]
        requests = []
        for kind, priority, arrival in shape:
            params = ({"accession": accession} if kind == "gene"
                      else {"accessions": [accession]}
                      if kind == "genes" else {})
            requests.append(Request(kind=kind, params=params,
                                    priority=priority, arrival=arrival))
        results = server.serve(requests)
        assert all(result.shed for result in results)
        assert [proxy.stats.calls for proxy in proxies] == before
        assert all(budget.spent == 0 and budget.denied == 0
                   for budget in server.budgets.values())
        assert all(hedger.issued == 0
                   for hedger in server.hedgers.values())
        assert mediator.cost.retries == 0
