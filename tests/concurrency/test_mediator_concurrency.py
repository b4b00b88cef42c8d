"""Concurrent fan-out must answer exactly like the sequential mediator.

Every test here runs on virtual time — DeterministicPool permutes
completion order without threads, and the one test that does use real
threads (`ThreadedPool`) still asserts bit-deterministic results
because each source's work lives on its own clock track.
"""

import sys
import threading

import pytest

from repro.mediator import (
    BreakerPolicy,
    MediationCost,
    Mediator,
    RetryPolicy,
    SequentialPool,
    ThreadedPool,
    bounded_makespan,
)
from repro.mediator.pool import run_on_tracks
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultStats,
    FaultyRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from tests.concurrency.scheduler import DeterministicPool


def _federation(seed=71, size=24, rate=0.0, latency=0.0):
    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    proxies = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=1),
        FaultyRepository(EmblRepository(universe), timeline, seed=2),
        FaultyRepository(AceRepository(universe), timeline, seed=3),
        FaultyRepository(SwissProtRepository(universe), timeline, seed=4),
    ]
    for proxy in proxies:
        if rate:
            proxy.fail_with_rate(rate)
        if latency:
            proxy.add_latency(latency)
    return timeline, proxies


def _rows(answer):
    return [(row.source, row.accession, row.sequence_text)
            for row in answer]


def _outcomes(health):
    return {name: (outcome.status, outcome.attempts, outcome.retries,
                   outcome.backoff)
            for name, outcome in health.outcomes.items()}


class TestBoundedMakespan:
    def test_one_lane_is_the_sum(self):
        assert bounded_makespan([3.0, 2.0, 5.0], 1) == 10.0

    def test_enough_lanes_is_the_max(self):
        assert bounded_makespan([3.0, 2.0, 5.0], 3) == 5.0

    def test_greedy_queue_drain_in_submission_order(self):
        # lanes: [4] and [1 -> 3]; makespan 4, not the sorted-order 5.
        assert bounded_makespan([4.0, 1.0, 3.0], 2) == 4.0

    def test_empty_batch_costs_nothing(self):
        assert bounded_makespan([], 4) == 0.0


#: ``run=None``: the jobs run inline, in order, on the caller's thread.
_inline = None


class TestRunOnTracks:
    """The one fork-join of virtual time, under the mediator's fan-out
    and the sharded server's scatter alike."""

    @staticmethod
    def _jobs(clock, durations):
        def job_for(index, duration):
            def job():
                started = clock.now()
                clock.advance(duration)
                return index, started
            return job
        return [job_for(index, duration)
                for index, duration in enumerate(durations)]

    def test_one_lane_is_the_sum(self):
        clock = VirtualClock(10.0)
        durations = [3.0, 2.0, 5.0]
        results = run_on_tracks(clock, self._jobs(clock, durations),
                                _inline, 1)
        # Every job started at the call's instant, whatever ran before.
        assert results == [(0, 10.0), (1, 10.0), (2, 10.0)]
        assert clock.now() == 10.0 + sum(durations)

    @pytest.mark.parametrize("lanes", [3, 4, 64])
    def test_enough_lanes_is_the_max(self, lanes):
        clock = VirtualClock(10.0)
        durations = [3.0, 0.0, 5.0]
        run_on_tracks(clock, self._jobs(clock, durations), _inline, lanes)
        assert clock.now() == 10.0 + max(durations)

    def test_results_keep_job_order_under_any_completion_order(self, seed):
        clock = VirtualClock()
        pool = DeterministicPool(seed=seed, max_workers=2)
        results = run_on_tracks(clock, self._jobs(clock, [4.0, 1.0, 3.0]),
                                pool.run, pool.max_workers)
        assert [index for index, __ in results] == [0, 1, 2]
        assert clock.now() == bounded_makespan([4.0, 1.0, 3.0], 2) == 4.0

    def test_a_raising_job_closes_its_track_and_spends_no_time(self):
        clock = VirtualClock(2.0)

        def doomed():
            clock.advance(7.0)
            raise LookupError("lost")

        jobs = self._jobs(clock, [1.0]) + [doomed]
        with pytest.raises(LookupError):
            run_on_tracks(clock, jobs, _inline, 2)
        assert clock.now() == 2.0
        # Nothing was left open: a fresh track still closes cleanly.
        assert clock.close_track(clock.open_track()) == 0.0

    def test_nested_under_an_open_outer_track_stays_lifo(self):
        # The serving loop's case: a whole request runs on a track
        # branched at its arrival, and the mediator fans out inside it.
        clock = VirtualClock(1.0)
        outer = clock.open_track(5.0)
        clock.advance(0.5)

        def fan_out():
            return run_on_tracks(clock, self._jobs(clock, [2.0, 3.0]),
                                 _inline, 2)

        inner = run_on_tracks(clock, [fan_out, fan_out], _inline, 1)
        assert [started for __, started in inner[0]] == [5.5, 5.5]
        assert clock.now() == 5.5 + 3.0 + 3.0     # joined into the outer
        assert clock.close_track(outer) == 6.5    # strict LIFO held
        assert clock.now() == 1.0                 # shared clock untouched


class TestDeterministicFusion:
    """Answer order and health must not depend on completion order."""

    def test_find_genes_identical_across_pool_orders(self, seed):
        reference = None
        for pool_seed in range(seed, seed + 6):
            timeline, proxies = _federation(rate=0.02)
            mediator = Mediator(
                proxies, RetryPolicy(max_attempts=3, jitter=0.0),
                timeline=timeline,
                pool=DeterministicPool(seed=pool_seed, max_workers=4),
            )
            answers = mediator.find_genes()
            observed = (_rows(answers), _outcomes(answers.health),
                        answers.health.elapsed)
            if reference is None:
                reference = observed
            assert observed == reference

    def test_batch_lookup_identical_across_pool_orders(self, seed):
        reference = None
        for pool_seed in range(seed, seed + 6):
            timeline, proxies = _federation(rate=0.02)
            accessions = proxies[0].inner.accessions()[:4]
            mediator = Mediator(
                proxies, RetryPolicy(max_attempts=3, jitter=0.0),
                timeline=timeline,
                pool=DeterministicPool(seed=pool_seed, max_workers=4),
            )
            batch = mediator.genes(accessions)
            observed = ({accession: _rows(views)
                         for accession, views in batch.items()},
                        _outcomes(batch.health))
            if reference is None:
                reference = observed
            assert observed == reference

    def test_fusion_follows_source_order_not_completion_order(self, seed):
        timeline, proxies = _federation()
        mediator = Mediator(proxies, timeline=timeline,
                            pool=DeterministicPool(seed=seed))
        answers = mediator.find_genes()
        order = [row.source for row in answers]
        boundaries = [order.index(name) for name in mediator.source_names
                      if name in order]
        assert boundaries == sorted(boundaries)

    def test_threaded_pool_matches_the_deterministic_shim(self, seed):
        results = []
        for pool in (DeterministicPool(seed=seed, max_workers=4),
                     ThreadedPool(max_workers=4)):
            timeline, proxies = _federation(rate=0.02, latency=1.0)
            mediator = Mediator(
                proxies, RetryPolicy(max_attempts=3, jitter=0.0),
                timeline=timeline, pool=pool,
            )
            answers = mediator.find_genes()
            results.append((_rows(answers), _outcomes(answers.health),
                            answers.health.elapsed,
                            mediator.cost.backoff_delay,
                            mediator.cost.source_requests,
                            mediator.cost.bytes_shipped))
        assert results[0] == results[1]

    def test_parallel_rows_match_sequential_rows(self, seed):
        timeline, proxies = _federation(rate=0.02)
        sequential = Mediator(proxies,
                              RetryPolicy(max_attempts=3, jitter=0.0),
                              timeline=timeline, max_concurrency=1)
        rows = _rows(sequential.find_genes())
        timeline, proxies = _federation(rate=0.02)
        parallel = Mediator(proxies, RetryPolicy(max_attempts=3, jitter=0.0),
                            timeline=timeline,
                            pool=DeterministicPool(seed=seed, max_workers=4))
        assert _rows(parallel.find_genes()) == rows


class TestWallClockDeadline:
    """The deadline bounds the makespan, not the per-source sum."""

    def test_every_source_gets_the_full_budget(self):
        timeline, proxies = _federation()
        for proxy in proxies:
            proxy.fail_with_rate(1.0)
        mediator = Mediator(
            proxies,
            RetryPolicy(max_attempts=10, base_delay=30.0, jitter=0.0,
                        deadline=40.0),
            timeline=timeline, max_concurrency=4,
        )
        answers = mediator.find_genes()
        health = answers.health
        assert health.deadline_hit
        attempts = {outcome.attempts
                    for outcome in health.outcomes.values()}
        assert attempts == {2}  # nobody starved by a sibling's backoff
        # Wall-clock: elapsed is one source's backoff, not four sources'.
        assert health.elapsed == pytest.approx(30.0)

    def test_sequential_budget_is_shared_but_parallel_is_not(self):
        def drained_attempts(concurrency):
            timeline, proxies = _federation()
            for proxy in proxies:
                proxy.fail_with_rate(1.0)
            mediator = Mediator(
                proxies,
                RetryPolicy(max_attempts=10, base_delay=30.0, jitter=0.0,
                            deadline=40.0),
                timeline=timeline, max_concurrency=concurrency,
            )
            health = mediator.find_genes().health
            return [outcome.attempts
                    for __, outcome in sorted(health.outcomes.items())]

        sequential = drained_attempts(1)
        parallel = drained_attempts(4)
        # Sequentially the first source drains the shared budget and the
        # rest fail fast; in parallel everyone gets the full window.
        assert sum(parallel) > sum(sequential)
        assert min(parallel) == max(parallel)


class TestLockedCounters:
    """Regression pack: remove the bump() locks and those hammers fail
    (verified — a method call is a GIL switch point, so the unlocked
    read-modify-write tears).  The clock hammer is a safety net only:
    CPython 3.11 cannot preempt inside a bare ``+=`` statement, so it
    passes either way today and guards against future refactors."""

    THREADS = 8
    BUMPS = 20_000

    def _hammer(self, bump):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [bump() for __ in range(self.BUMPS)])
                for __ in range(self.THREADS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)

    def test_mediation_cost_bump_loses_no_updates(self):
        cost = MediationCost()
        self._hammer(lambda: cost.bump("retries"))
        assert cost.retries == self.THREADS * self.BUMPS

    def test_fault_stats_bump_loses_no_updates(self):
        stats = FaultStats()
        self._hammer(lambda: stats.bump("calls"))
        assert stats.calls == self.THREADS * self.BUMPS

    def test_virtual_clock_advance_loses_no_time(self):
        clock = VirtualClock()
        self._hammer(lambda: clock.advance(1.0))
        assert clock.now() == float(self.THREADS * self.BUMPS)


class TestClockTracks:
    def test_tracks_isolate_per_task_time(self):
        clock = VirtualClock()
        clock.advance(5.0)
        track = clock.open_track()
        clock.advance(7.0)
        assert clock.now() == 12.0  # track view
        assert clock.close_track(track) == 7.0
        assert clock.now() == 5.0   # the shared clock never moved

    def test_nested_tracks_stack_per_thread(self):
        # The serving layer measures one source call on an inner track
        # while the fan-out job's outer track stays open.
        clock = VirtualClock()
        clock.advance(5.0)
        outer = clock.open_track()
        clock.advance(2.0)
        inner = clock.open_track()
        clock.advance(3.0)
        assert clock.now() == 10.0            # outer origin + 2 + 3
        assert clock.close_track(inner) == 3.0
        assert clock.now() == 7.0             # inner advance not folded in
        assert clock.close_track(outer) == 2.0
        assert clock.now() == 5.0             # shared clock never moved

    def test_tracks_close_strictly_lifo(self):
        clock = VirtualClock()
        outer = clock.open_track()
        inner = clock.open_track()
        with pytest.raises(RuntimeError):
            clock.close_track(outer)          # inner is still open
        clock.close_track(inner)
        clock.close_track(outer)

    def test_closing_a_foreign_track_is_rejected(self):
        from repro.sources.faults import ClockTrack

        clock = VirtualClock()
        with pytest.raises(RuntimeError):
            clock.close_track(ClockTrack(0.0))


class TestPoolValidation:
    def test_zero_workers_rejected(self):
        from repro.errors import MediatorError

        with pytest.raises(MediatorError):
            ThreadedPool(0)

    def test_zero_concurrency_rejected(self):
        from repro.errors import MediatorError

        universe = Universe(seed=3, size=4)
        with pytest.raises(MediatorError):
            Mediator([GenBankRepository(universe)], max_concurrency=0)

    def test_default_concurrency_is_source_count(self):
        universe = Universe(seed=3, size=4)
        sources = [GenBankRepository(universe), EmblRepository(universe)]
        mediator = Mediator(sources)
        assert mediator.max_concurrency == 2
        assert mediator.pool.max_workers == 2

    def test_single_source_stays_sequential(self):
        universe = Universe(seed=3, size=4)
        mediator = Mediator([GenBankRepository(universe)])
        assert isinstance(mediator.pool, SequentialPool)
