"""FederationServer: the serving loop where the five mechanisms meet.

The heart of the suite is the deadline-accounting contract: queue
wait, cache time, source latency and retry backoff all draw from ONE
per-query budget anchored at *arrival*, and a query that dies in the
queue reports ``deadline_hit`` and ``shed`` honestly instead of
pretending it ran.
"""

import pytest

from repro.errors import OverloadError
from repro.mediator import BreakerPolicy, CachedMediator
from repro.serving import (
    BATCH,
    CACHE_ONLY,
    INTERACTIVE,
    MAINTENANCE,
    FederationServer,
    Request,
    ServingPolicy,
    overload_federation,
    summarize,
    synthetic_workload,
)
from repro.sources import (
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from tests.serving.conftest import quiet_federation


def bare_policy(**kw):
    """Admission control only — every other mechanism off."""
    defaults = dict(capacity=1, deadline=None, retry_budget_ratio=None,
                    adaptive_concurrency=False, hedging=False,
                    brownout=False)
    defaults.update(kw)
    return ServingPolicy(**defaults)


def gene_request(accession, arrival=0.0, priority=INTERACTIVE,
                 deadline=None):
    return Request(kind="gene", params={"accession": accession},
                   priority=priority, arrival=arrival, deadline=deadline)


def measure_gene_duration(accession):
    """One gene query's duration on a fresh quiet federation."""
    server, __, __, __ = quiet_federation(bare_policy())
    return server.serve([gene_request(accession)])[0].latency


class TestServeBasics:
    def test_results_come_back_in_input_order(self, quiet):
        server, __, __, accessions = quiet
        requests = [gene_request(accessions[2], 0.0, priority=MAINTENANCE),
                    gene_request(accessions[0], 0.5, priority=INTERACTIVE),
                    gene_request(accessions[1], 1.0, priority=BATCH)]
        results = server.serve(requests)
        assert [r.request.params["accession"] for r in results] == \
            [accessions[2], accessions[0], accessions[1]]

    def test_light_load_serves_everything(self, quiet):
        server, __, __, accessions = quiet
        requests = [gene_request(accessions[i % len(accessions)],
                                 arrival=4.0 * i) for i in range(8)]
        results = server.serve(requests)
        assert not any(r.shed for r in results)
        assert not server.queue.shed

    def test_clock_advances_by_the_makespan(self, quiet):
        server, __, __, accessions = quiet
        before = server.timeline.now()
        results = server.serve([gene_request(accessions[0]),
                                gene_request(accessions[1], 1.0)])
        makespan = max(r.completed for r in results)
        assert server.timeline.now() == pytest.approx(before + makespan)

    def test_unknown_kind_rejected_at_request_build(self):
        with pytest.raises(Exception):
            Request(kind="drop_tables")


class TestPriorityScheduling:
    def test_interactive_overtakes_earlier_batch_in_queue(self):
        server, __, __, accessions = quiet_federation(bare_policy())
        requests = [
            gene_request(accessions[0], 0.0, priority=INTERACTIVE),  # runs
            gene_request(accessions[1], 0.0, priority=BATCH),
            gene_request(accessions[2], 0.0, priority=INTERACTIVE),
            gene_request(accessions[3], 0.0, priority=MAINTENANCE),
        ]
        r = server.serve(requests)
        assert r[0].completed < r[2].completed < r[1].completed \
            < r[3].completed


class TestDeadlineAccounting:
    """Satellite: queue wait consumes the same budget as backoff."""

    def test_budget_evaporated_in_queue_sheds_at_dequeue(self):
        duration = measure_gene_duration("any")
        # A huge wait factor mutes the admission estimator so the
        # dequeue-time check is what does the shedding here.
        server, __, sources, accessions = quiet_federation(
            bare_policy(deadline=1.5 * duration,
                        admission_wait_factor=100.0))
        requests = [gene_request(accessions[i], 0.0) for i in range(4)]
        results = server.serve(requests)
        r0, r1, r2, r3 = results
        assert not r0.shed and r0.latency == pytest.approx(duration)
        # r1 started inside its budget; its *latency* still overran —
        # it is served, just not "good".
        assert not r1.shed
        assert r1.queue_wait == pytest.approx(duration)
        assert not r1.in_deadline(1.5 * duration)
        # r2/r3's whole budget evaporated while queued: shed at
        # dequeue, both facts reported honestly.
        for late in (r2, r3):
            assert late.shed and late.shed_reason == "deadline"
            assert late.health.deadline_hit
            assert late.queue_wait == pytest.approx(2.0 * duration)
            assert late.completed == pytest.approx(2.0 * duration)
        assert server.queue.shed == {"deadline": 2}

    def test_shed_queries_never_touch_a_source(self):
        duration = measure_gene_duration("any")

        def calls_for(count):
            server, __, sources, accessions = quiet_federation(
                bare_policy(deadline=1.5 * duration,
                            admission_wait_factor=100.0))
            server.serve([gene_request(accessions[i], 0.0)
                          for i in range(count)])
            return [proxy.stats.calls for proxy in sources]

        # Requests 3 and 4 are shed; the sources never hear about them.
        assert calls_for(4) == calls_for(2)

    def test_queue_wait_consumes_the_retry_budget_window(self):
        """The same query retries less after queueing: one budget."""
        # An effectively-disabled breaker keeps EMBL's retry ladder in
        # play for both queries — the budget is what we're isolating.
        lenient = BreakerPolicy(failure_threshold=10 ** 6,
                                reset_timeout=1.0)
        server, __, sources, accessions = quiet_federation(
            bare_policy(deadline=None), breaker_policy=lenient)
        sources[1].schedule_outage(0.0, 100_000.0)   # EMBL down
        baseline = server.serve([gene_request(accessions[0])])[0]
        # Unqueued, the 40.0 default budget lets EMBL run all 3
        # attempts before failing.
        assert baseline.health.outcome("EMBL").attempts == 3
        assert not baseline.health.deadline_hit
        duration = baseline.latency

        server, __, sources, accessions = quiet_federation(
            bare_policy(deadline=duration + 2.0), breaker_policy=lenient)
        sources[1].schedule_outage(0.0, 100_000.0)
        first, queued = server.serve([gene_request(accessions[0], 0.0),
                                      gene_request(accessions[0], 0.0)])
        # Head of line: same budget, full retry ladder.
        assert first.health.outcome("EMBL").attempts == 3
        assert not first.health.deadline_hit
        # The queued twin burned its budget waiting: deadline hits
        # mid-ladder and the attempt count is capped.
        assert queued.queue_wait == pytest.approx(duration)
        assert queued.health.deadline_hit
        assert queued.health.outcome("EMBL").attempts < 3

    def test_trained_estimator_sheds_hopeless_arrivals_up_front(self):
        duration = measure_gene_duration("any")
        server, __, __, accessions = quiet_federation(bare_policy())
        # Train the wait estimator with real service times.
        server.serve([gene_request(accessions[i % 8], arrival=6.0 * i)
                      for i in range(4)])
        burst = [gene_request(accessions[i % 8], 0.0,
                              deadline=0.5 * duration) for i in range(6)]
        results = server.serve(burst)
        admission_shed = [r for r in results
                          if r.shed and r.queue_wait == 0.0
                          and r.completed == r.arrival]
        assert admission_shed, "no arrival was shed by the wait estimate"
        for r in admission_shed:
            assert r.shed_reason == "deadline"
            assert not r.health.deadline_hit   # never started — not a
            #                                    deadline *overrun*


class TestQueueBound:
    def test_overflow_sheds_queue_full(self):
        server, __, __, accessions = quiet_federation(
            bare_policy(queue_capacity=2))
        results = server.serve([gene_request(accessions[i % 8], 0.0)
                                for i in range(10)])
        shed = [r for r in results if r.shed]
        assert len(shed) == 7                 # 1 running + 2 queued
        assert {r.shed_reason for r in shed} == {"queue_full"}
        assert server.queue.shed == {"queue_full": 7}

    def test_strict_mode_raises_instead_of_degrading(self):
        server, __, __, accessions = quiet_federation(
            bare_policy(queue_capacity=0), strict=True)
        with pytest.raises(OverloadError) as exc:
            server.serve([gene_request(accessions[0], 0.0),
                          gene_request(accessions[1], 0.0)])
        assert exc.value.reason == "queue_full"

    def test_unprotected_policy_never_sheds(self):
        server, __, __, accessions = quiet_federation(
            ServingPolicy.unprotected(capacity=1, deadline=5.0))
        results = server.serve([gene_request(accessions[i % 8], 0.0)
                                for i in range(12)])
        assert not any(r.shed for r in results)
        assert not server.queue.shed
        # Late answers stay late — that's the baseline's failure mode.
        assert any(not r.in_deadline(5.0) for r in results)


class TestAdmitInline:
    def test_admits_when_idle(self, quiet):
        server, __, __, __ = quiet
        assert server.admit_inline() is None

    def test_brownout_refuses_background_classes(self, quiet):
        server, __, __, __ = quiet
        server.brownout.level = CACHE_ONLY
        assert server.admit_inline(MAINTENANCE) == "brownout"
        assert server.admit_inline(INTERACTIVE) is None


class TestBrownoutServing:
    def policy(self):
        return ServingPolicy(capacity=2, deadline=25.0,
                             brownout_exit_after=1000)

    def test_cache_only_serves_batch_from_cache(self):
        server, mediator, __, accessions = overload_federation(
            policy=self.policy(), fail_rate=0.0, slow_rate=0.0,
            cached=True)
        mediator.gene(accessions[0])          # prime the cache
        server.brownout.level = CACHE_ONLY
        hit = server.serve([gene_request(accessions[0], priority=BATCH)])[0]
        assert hit.from_cache and not hit.shed
        assert hit.latency == 0.0             # no live work at all

    def test_cache_only_sheds_unprimed_batch(self):
        server, __, __, accessions = overload_federation(
            policy=self.policy(), fail_rate=0.0, slow_rate=0.0,
            cached=True)
        server.brownout.level = CACHE_ONLY
        miss = server.serve([gene_request(accessions[3], priority=BATCH)])[0]
        assert miss.shed and miss.shed_reason == "brownout"

    def test_cache_only_still_runs_interactive_live(self):
        server, __, __, accessions = overload_federation(
            policy=self.policy(), fail_rate=0.0, slow_rate=0.0,
            cached=True)
        server.brownout.level = CACHE_ONLY
        live = server.serve([gene_request(accessions[3],
                                          priority=INTERACTIVE)])[0]
        assert not live.shed and not live.from_cache
        assert live.latency > 0.0


class TestOverloadBehaviour:
    """The calibrated federation under real storms (A11's fixture)."""

    def serve_at(self, load, *, policy=None, count=60, **federation_kw):
        server, mediator, sources, accessions = overload_federation(
            policy=policy, **federation_kw)
        requests = synthetic_workload(accessions, count=count,
                                      load_factor=load, capacity=4,
                                      mean_service=3.0, seed=3)
        return server, mediator, sources, server.serve(requests)

    def test_hedging_fires_and_wins_on_the_heavy_tail(self):
        server, mediator, __, results = self.serve_at(1.0, count=80)
        cost = mediator.cost
        assert cost.hedges_issued > 0
        assert 0 < cost.hedges_won <= cost.hedges_issued
        hedged = [r for r in results if r.health.sources_hedged]
        assert hedged, "no query recorded a hedged source"

    def test_flapping_source_drains_the_retry_budget(self):
        # Intermittent failures create retry demand without tripping
        # the consecutive-failure breaker — exactly the storm shape
        # retry budgets exist for.
        lenient = BreakerPolicy(failure_threshold=10 ** 6,
                                reset_timeout=1.0)
        server, mediator, sources, accessions = quiet_federation(
            ServingPolicy(capacity=4, deadline=None),
            breaker_policy=lenient)
        sources[1].fail_with_rate(0.6)
        requests = [gene_request(accessions[i % 8], arrival=12.0 * i)
                    for i in range(40)]
        server.serve(requests)
        budget = server.budgets["EMBL"]
        assert budget.denied > 0
        assert mediator.cost.retry_budget_denials > 0
        # Demand was ~0.6 retries per call; the budget held aggregate
        # spend to the burst allowance plus what successes earned.
        assert budget.spent <= budget.burst + budget.deposits

    def test_limits_never_exclude_every_source(self):
        server, __, __, accessions = quiet_federation(
            bare_policy(adaptive_concurrency=True))
        names = server.source_names
        # Every source holds more calls in flight than its limit allows:
        # the one with the most headroom (first by name on a tie) stays.
        server._intervals = [(0.0, 10.0, frozenset(names))] * 100
        excluded = server._exclusions(gene_request(accessions[0]), 1.0)
        assert set(names) - excluded == {min(names)}

    def test_aimd_throttles_a_dead_source(self):
        server, mediator, sources, accessions = overload_federation()
        sources[1].schedule_outage(0.0, 100_000.0)
        requests = synthetic_workload(accessions, count=60,
                                      load_factor=2.0, capacity=4,
                                      mean_service=3.0, seed=3)
        results = server.serve(requests)
        limiter = server.limiters["EMBL"]
        # The limit was cut before the breaker took over entirely
        # (skipped outcomes don't feed the limiter).
        assert limiter.decreases > 0
        assert limiter.allowed < server.policy.capacity
        assert mediator.cost.source_exclusions > 0
        # Exclusion is never total: every served answer heard from at
        # least one source.
        for r in results:
            if not r.shed and not r.from_cache:
                statuses = {o.status
                            for o in r.health.outcomes.values()}
                assert statuses - {"skipped"}

    def test_a_cache_hit_feeds_no_limiter(self):
        # A hit's outcomes are those of the miss that filled its entry:
        # fed to the AIMD limiters, they would cut limits on calls that
        # never happened.
        universe = Universe(seed=71, size=24)
        timeline = VirtualClock()
        sources = [FaultyRepository(GenBankRepository(universe), timeline,
                                    seed=1),
                   FaultyRepository(EmblRepository(universe), timeline,
                                    seed=2)]
        for proxy in sources:
            proxy.add_latency(3.0)
        server = FederationServer(
            CachedMediator(sources, timeline=timeline, max_concurrency=1),
            ServingPolicy(capacity=4, deadline=100.0,
                          aimd_latency_target=2.0, aimd_cooldown=0.0))
        accession = sources[0].accessions()[0]
        miss = server.serve([gene_request(accession)])[0]
        limits = {name: limiter.limit
                  for name, limiter in server.limiters.items()}
        calls = [proxy.stats.calls for proxy in sources]
        hit = server.serve([gene_request(accession)])[0]
        assert (miss.from_cache, hit.from_cache) == (False, True)
        assert [proxy.stats.calls for proxy in sources] == calls
        assert {name: limiter.limit
                for name, limiter in server.limiters.items()} == limits
        assert limits == {"GenBank": 2.0, "EMBL": 2.0}

    def test_protection_beats_collapse_at_4x(self):
        __, __, __, protected = self.serve_at(4.0, count=120)
        __, __, __, unprotected = self.serve_at(
            4.0, count=120,
            policy=ServingPolicy.unprotected(capacity=4, deadline=25.0))
        prot = summarize(protected, budget=25.0)
        unprot = summarize(unprotected, budget=25.0)
        assert prot["p99"] <= 25.0 * 1.2
        assert unprot["p99"] > 25.0 * 1.5
        prot_rate = prot["good"] / prot["makespan"]
        unprot_rate = unprot["good"] / unprot["makespan"]
        assert prot_rate > 1.5 * unprot_rate


class TestSummarize:
    def test_shape_and_arithmetic(self, quiet):
        server, __, __, accessions = quiet
        results = server.serve([gene_request(accessions[i], 4.0 * i)
                                for i in range(4)])
        stats = summarize(results, budget=25.0)
        assert stats["offered"] == 4
        assert stats["served"] == stats["good"] == 4
        assert stats["shed"] == 0 and stats["shed_by_reason"] == {}
        assert stats["goodput_ratio"] == 1.0
        assert 0 < stats["p50"] <= stats["p99"] <= stats["max_latency"]
        assert stats["makespan"] == max(r.completed for r in results)

    def test_empty_input(self):
        stats = summarize([])
        assert stats["offered"] == 0 and stats["p99"] == 0.0
