"""Retries, circuit breakers, and degraded-answer semantics."""

import pytest

from repro.errors import MediatorError
from repro.mediator import (
    BreakerPolicy,
    CircuitBreaker,
    MediatedGene,
    MediationCost,
    Mediator,
    RetryPolicy,
)
from repro.mediator.mediator import CLOSED, HALF_OPEN, OPEN
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)


def _federation(seed=71, size=24):
    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    proxies = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=1),
        FaultyRepository(EmblRepository(universe), timeline, seed=2),
        FaultyRepository(AceRepository(universe), timeline, seed=3),
    ]
    return timeline, proxies


def _keys(rows):
    return {(row.source, row.accession) for row in rows}


def _baseline_keys(proxies, skip=()):
    live = [proxy.inner for proxy in proxies
            if proxy.inner.name not in skip]
    return _keys(Mediator(live).find_genes())


class TestRetryPolicy:
    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_delay=6.0)
        assert policy.delay_before(2) == 1.0
        assert policy.delay_before(3) == 2.0
        assert policy.delay_before(4) == 4.0
        assert policy.delay_before(5) == 6.0  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        delay = policy.delay_before(2, "EMBL", "fetch")
        assert delay == policy.delay_before(2, "EMBL", "fetch")
        assert 0.5 <= delay <= 1.0
        assert delay != policy.delay_before(2, "GenBank", "fetch")

    def test_no_retries_baseline(self):
        assert RetryPolicy.no_retries().max_attempts == 1

    def test_zero_attempts_rejected(self):
        with pytest.raises(MediatorError):
            RetryPolicy(max_attempts=0)


class TestRetries:
    def test_intermittent_failure_is_absorbed(self):
        timeline, proxies = _federation()
        proxies[0].fail_next(2, "snapshot")
        mediator = Mediator(proxies, RetryPolicy(max_attempts=3, jitter=0.0))
        answers = mediator.find_genes()
        assert _keys(answers) == _baseline_keys(proxies)
        health = answers.health
        assert health.complete
        assert health.sources_retried == ("GenBank",)
        assert health.outcome("GenBank").retries == 2

    def test_cost_counters_track_the_work(self):
        timeline, proxies = _federation()
        proxies[0].fail_next(2, "snapshot")
        mediator = Mediator(proxies, RetryPolicy(max_attempts=3, jitter=0.0))
        mediator.find_genes()
        assert mediator.cost.retries == 2
        assert mediator.cost.source_failures == 2
        assert mediator.cost.backoff_delay == pytest.approx(3.0)  # 1 + 2

    def test_exhausted_retries_degrade_the_answer(self):
        timeline, proxies = _federation()
        proxies[1].fail_with_rate(1.0)
        mediator = Mediator(proxies, RetryPolicy(max_attempts=3, jitter=0.0))
        answers = mediator.find_genes()
        assert _keys(answers) == _baseline_keys(proxies, skip=("EMBL",))
        assert answers.health.sources_failed == ("EMBL",)
        assert answers.health.outcome("EMBL").attempts == 3

    def test_strict_mode_raises_naming_the_source(self):
        timeline, proxies = _federation()
        proxies[1].fail_with_rate(1.0)
        mediator = Mediator(proxies, RetryPolicy(max_attempts=2, jitter=0.0))
        with pytest.raises(MediatorError, match="EMBL"):
            mediator.find_genes(strict=True)
        assert mediator.last_health.sources_failed == ("EMBL",)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(3, 30.0), VirtualClock())
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.times_opened == 1
        assert not breaker.allow()

    def test_half_open_probe_success_recloses(self):
        timeline = VirtualClock()
        breaker = CircuitBreaker(BreakerPolicy(1, 30.0), timeline)
        breaker.record_failure()
        assert breaker.retry_at() == 30.0
        timeline.advance(30.0)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_probe_failure_reopens(self):
        timeline = VirtualClock()
        breaker = CircuitBreaker(BreakerPolicy(3, 30.0), timeline)
        for __ in range(3):
            breaker.record_failure()
        timeline.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()  # one probe failure suffices
        assert breaker.state == OPEN
        assert breaker.times_opened == 2

    def test_open_breaker_skips_without_touching_the_source(self):
        timeline, proxies = _federation()
        genbank = proxies[0]
        genbank.fail_with_rate(1.0)
        mediator = Mediator(proxies, RetryPolicy.no_retries(),
                            BreakerPolicy(failure_threshold=2,
                                          reset_timeout=1e9))
        mediator.find_genes()
        mediator.find_genes()
        assert mediator.breaker_for("GenBank").state == OPEN
        calls_before = genbank.stats.calls
        answers = mediator.find_genes()
        assert genbank.stats.calls == calls_before
        assert answers.health.sources_skipped == ("GenBank",)
        assert mediator.cost.breaker_rejections == 1


class TestDeadlineBudget:
    def test_generous_deadline_is_invisible(self):
        timeline, proxies = _federation()
        mediator = Mediator(proxies, RetryPolicy(deadline=1000.0))
        answers = mediator.find_genes()
        assert answers.health.complete
        assert not answers.health.deadline_hit


class TestQueryHealth:
    def test_single_and_batch_lookups_carry_health(self):
        timeline, proxies = _federation()
        mediator = Mediator(proxies)
        accessions = proxies[0].inner.accessions()[:2]
        single = mediator.gene(accessions[0])
        assert single.health.complete
        assert mediator.last_health is single.health
        batch = mediator.genes(accessions)
        assert set(batch) == set(accessions)
        assert batch.health.complete
        assert mediator.last_health is batch.health

    def test_failure_within_a_query_is_sticky(self):
        timeline, proxies = _federation()
        embl = proxies[1]
        embl.fail_next(1, "query")
        mediator = Mediator(proxies, RetryPolicy.no_retries())
        first, second = embl.inner.accessions()[:2]
        batch = mediator.genes([first, second])
        # EMBL failed the first lookup, answered the second — the query's
        # verdict must stay "failed" so `complete` never overstates.
        assert batch.health.sources_failed == ("EMBL",)
        assert batch.health.degraded
        assert any(view.source == "EMBL" for view in batch[second])

    def test_summary_names_the_losses(self):
        timeline, proxies = _federation()
        proxies[1].fail_with_rate(1.0)
        mediator = Mediator(proxies, RetryPolicy(max_attempts=2, jitter=0.0))
        mediator.find_genes()
        summary = mediator.last_health.summary()
        assert "failed=EMBL" in summary
        assert "retries=" in summary


class TestPerQueryAttemptNumbering:
    """`SourceError.attempt` must count attempts per *query*, not per
    call — a reused mediator used to restart the numbering on every
    internal call, so a batch's fourth attempt reported ``attempt=2``."""

    def _wrapper(self):
        from repro.mediator.mediator import QueryHealth

        timeline, proxies = _federation()
        proxies[1].fail_with_rate(1.0)
        mediator = Mediator(
            proxies,
            RetryPolicy(max_attempts=2, jitter=0.0),
            BreakerPolicy(failure_threshold=999, reset_timeout=1e9),
        )
        wrapper = next(candidate for candidate in mediator.wrappers
                       if candidate.repository.name == "EMBL")
        return wrapper, QueryHealth

    def test_attempt_numbering_continues_within_a_query(self):
        from repro.errors import SourceError

        wrapper, QueryHealth = self._wrapper()
        health = QueryHealth()
        call = wrapper.repository.snapshot
        with pytest.raises(SourceError) as first:
            wrapper.resilient("snapshot", call, health)
        assert first.value.attempt == 2
        with pytest.raises(SourceError) as second:
            wrapper.resilient("snapshot", call, health)
        assert second.value.attempt == 4  # same query: numbering continues
        assert health.outcome("EMBL").attempts == 4

    def test_attempt_numbering_resets_on_a_fresh_query(self):
        from repro.errors import SourceError

        wrapper, QueryHealth = self._wrapper()
        call = wrapper.repository.snapshot
        with pytest.raises(SourceError) as spent:
            wrapper.resilient("snapshot", call, QueryHealth())
        assert spent.value.attempt == 2
        with pytest.raises(SourceError) as fresh:
            wrapper.resilient("snapshot", call, QueryHealth())
        assert fresh.value.attempt == 2   # new query: numbering resets

    def test_batch_outcome_reports_per_query_attempts(self):
        timeline, proxies = _federation()
        embl = proxies[1]
        embl.fail_with_rate(1.0)
        mediator = Mediator(
            proxies,
            RetryPolicy(max_attempts=2, jitter=0.0),
            BreakerPolicy(failure_threshold=999, reset_timeout=1e9),
        )
        first, second = embl.inner.accessions()[:2]
        batch = mediator.genes([first, second])
        # Two lookups × two attempts each, all within one query.
        assert batch.health.outcome("EMBL").attempts == 4


class TestSatellites:
    def test_mediated_gene_length_tracks_its_sequence(self):
        gene = MediatedGene(accession="X", source="S", name=None,
                            organism=None, description=None,
                            sequence_text="ATGC")
        assert gene.length == 4
        gene.sequence_text = "ATGCAT"
        assert gene.length == 6

    def test_duplicate_source_names_rejected(self):
        universe = Universe(seed=71, size=10)
        with pytest.raises(MediatorError, match="duplicate"):
            Mediator([GenBankRepository(universe),
                      GenBankRepository(universe)])

    def test_cost_reset_zeroes_every_counter(self):
        from dataclasses import fields

        cost = MediationCost()
        for index, spec in enumerate(fields(cost), start=1):
            setattr(cost, spec.name, index)  # every field non-default
        snapshot = cost.reset()
        for index, spec in enumerate(fields(cost), start=1):
            assert getattr(snapshot, spec.name) == index
            assert getattr(cost, spec.name) == spec.default

    def test_memo_survives_nothing_past_its_query(self):
        timeline, proxies = _federation()
        mediator = Mediator(proxies)
        mediator.find_genes()
        for wrapper in mediator.wrappers:
            assert wrapper._memo is None
            assert not wrapper._memo_active

    def test_midquery_failure_does_not_poison_the_memo(self):
        timeline, proxies = _federation()
        ace = proxies[2]  # non-queryable: ships its dump through the memo
        ace.fail_next(1, "snapshot")
        mediator = Mediator(proxies, RetryPolicy.no_retries())
        degraded = mediator.find_genes()
        assert degraded.health.sources_failed == ("AceDB",)
        healed = mediator.find_genes()
        assert healed.health.complete
        assert _keys(healed) == _baseline_keys(proxies)
