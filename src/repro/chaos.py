"""Chaos harness: the federation-layer fault-injection scenario matrix.

``python -m repro chaos --self-test`` (and ``tests/test_cli.py``) runs
every scenario below against seeded :class:`~repro.sources.faults.
FaultyRepository` proxies and asserts the degraded-answer contract the
mediator and the ETL monitors promise:

1. **intermittent-retry** — a source that fails twice then answers is
   transparently retried; the answer is complete and the retries are
   reported, not hidden.
2. **outage-window** — with one of three sources down, the non-strict
   mediator still returns every answer derivable from the two live
   sources, names the dead one in ``QueryHealth``, and ``strict=True``
   raises instead.
3. **breaker-recovery** — repeated failures open the per-source circuit
   (later queries skip the source without touching it); after the reset
   timeout a half-open probe recloses it and answers are complete again.
4. **corrupt-snapshot** — a monitor fed truncated/garbled dumps
   quarantines what it cannot parse, never fabricates deletions, and
   converges to the true source state once dumps are clean again.
5. **log-channel-loss** — a :class:`~repro.etl.monitors.LogMonitor`
   whose log stops answering degrades to snapshot-diff polling and,
   when the log returns, resyncs without losing or double-delivering a
   single delta.
6. **deadline-exhaustion** — a per-query backoff budget stops retries
   from stretching an answer forever; the health report says the
   deadline was hit and the live sources still answer.
7. **push-channel-loss** — a :class:`~repro.etl.monitors.TriggerMonitor`
   whose push channel goes quiet falls back to snapshot differentials
   and recovers the dropped notifications exactly once.
8. **concurrent-fanout** — concurrent source fan-out returns the same
   rows in the same order as the sequential mediator, shortens modelled
   wall-clock latency, and replays bit for bit across runs.
9. **cache-invalidation-storm** — a delta storm plus an outage window
   against a :class:`~repro.mediator.CachedMediator`: every served
   answer matches the post-delta source state (zero staleness), while
   entries nothing touched survive in cache — precise invalidation,
   no blanket flush.
10. **trace-correlation** — an outage window plus the retry storm it
    provokes, run with :mod:`repro.obs` tracing on: the captured trace
    must contain the breaker-open and degraded-answer annotations, and
    every ``QueryHealth.trace_id`` must name the trace whose spans
    describe that very query.
11. **overload-storm** — a 6× offered-load burst with one source in an
    outage, served through the :mod:`repro.serving` admission layer:
    the server keeps answering in-deadline during the storm, retry
    budgets bound the amplification (denials > 0), the AIMD limiter
    cuts the dead source's width, the brownout ladder steps up and —
    hysteretically — unwinds to NORMAL, and a calm tail is served
    clean, with zero sheds at the end.
12. **replica-failover** — the primary dies mid-stream with unshipped
    statements on disk; the most-caught-up follower is promoted inside
    the promotion window with zero statements lost or doubled, and the
    surviving follower re-follows the new primary.
13. **bit-rot-repair** — seeded byte-flips land in a follower's sealed
    segment, in the primary's checkpoint image, and in an in-flight
    shipment: every flip is detected (CRC / digest), none is applied,
    clean runs raise zero false positives; the next catch-up round
    quarantines and replaces the rotted segment (byte-identical
    convergence), and promotion refuses the follower whose ledger fails
    verification.
14. **split-brain** — a leased primary is cut off by a one-sided
    partition and keeps acknowledging writes until its lease dies; a
    follower is promoted under a bumped epoch, the zombie's
    post-partition shipments are fenced by every survivor, and on heal
    the zombie demotes, quarantines its diverged tail, and names each
    acknowledged-but-lost statement — while the write-history auditor
    certifies zero acknowledged-and-replicated writes lost, exactly one
    acknowledging primary per epoch, and byte-identical convergence.

Every scenario is deterministic under its fixed seed: same faults, same
retries, same answers, bit for bit.  ``--concurrency N`` re-runs the
mediator-driven scenarios with an explicit fan-out width (default: one
worker per source); ``--only NAME`` runs a single scenario.
"""

from __future__ import annotations

from repro.errors import LeaseError, MediatorError
from repro.etl.delta import DELETE
from repro.etl.monitors import LogMonitor, SnapshotMonitor, TriggerMonitor
from repro.mediator import (
    BreakerPolicy,
    CachedMediator,
    Mediator,
    RetryPolicy,
)
from repro.mediator.cache import normalize_query
from repro.selftest import ScenarioFailure, ScenarioMatrix, expect as _expect
from repro.sim import group as sim
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)


def _federation(seed: int = 101, size: int = 24):
    """Three overlapping faultable sources on one shared timeline."""
    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    sources = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=1),
        FaultyRepository(EmblRepository(universe), timeline, seed=2),
        FaultyRepository(AceRepository(universe), timeline, seed=3),
    ]
    return universe, timeline, sources


def _answer_keys(rows) -> set[tuple[str, str]]:
    return {(row.source, row.accession) for row in rows}


def _baseline_keys(faulty_sources) -> set[tuple[str, str]]:
    """What a fault-free mediator over the same repositories answers."""
    return _answer_keys(
        Mediator([proxy.inner for proxy in faulty_sources]).find_genes()
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def scenario_intermittent_retry(concurrency: int | None = None) -> str:
    __, timeline, sources = _federation(seed=201)
    genbank = sources[0]
    genbank.fail_next(2, "snapshot")
    mediator = Mediator(sources, timeline=timeline,
                        max_concurrency=concurrency)
    answers = mediator.find_genes()
    health = answers.health
    _expect(_answer_keys(answers) == _baseline_keys(sources),
            "retried answer differs from the fault-free answer")
    _expect(health.complete, f"health not complete: {health.summary()}")
    _expect(health.sources_retried == ("GenBank",),
            f"expected GenBank retried, got {health.sources_retried}")
    _expect(health.outcome("GenBank").retries == 2,
            f"expected 2 retries, got {health.outcome('GenBank').retries}")
    _expect(mediator.cost.retries == 2 and mediator.cost.source_failures == 2,
            "retry/failure counters not folded into MediationCost")
    return (f"2 injected failures absorbed; "
            f"{len(answers)} rows, {health.summary()}")


def scenario_outage_window(concurrency: int | None = None) -> str:
    __, timeline, sources = _federation(seed=202)
    embl = sources[1]
    embl.schedule_outage(0.0, 1_000.0)
    mediator = Mediator(sources, timeline=timeline,
                        max_concurrency=concurrency)
    answers = mediator.find_genes()
    health = answers.health
    live_keys = _answer_keys(
        Mediator([sources[0].inner, sources[2].inner]).find_genes()
    )
    _expect(_answer_keys(answers) == live_keys,
            "degraded answer lost rows derivable from the live sources")
    _expect(health.sources_failed == ("EMBL",),
            f"expected EMBL failed, got {health.sources_failed}")
    _expect(not health.complete, "health claims completeness in an outage")
    try:
        mediator.find_genes(strict=True)
    except MediatorError as error:
        _expect("EMBL" in str(error), "strict error does not name EMBL")
    else:
        raise ScenarioFailure("strict=True did not raise on a dead source")
    return (f"{len(answers)} rows from 2 live sources; "
            f"failed={','.join(health.sources_failed)}; strict raised")


def scenario_breaker_recovery(concurrency: int | None = None) -> str:
    __, timeline, sources = _federation(seed=203)
    embl = sources[1]
    embl.schedule_outage(0.0, 60.0)
    mediator = Mediator(
        sources,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                 multiplier=2.0, jitter=0.0),
        breaker_policy=BreakerPolicy(failure_threshold=3, reset_timeout=20.0),
        timeline=timeline, max_concurrency=concurrency,
    )
    breaker = mediator.breaker_for("EMBL")
    mediator.find_genes()          # 2 failures: breaker still closed
    _expect(breaker.state == "closed", "breaker opened below its threshold")
    mediator.find_genes()          # 3rd failure opens the circuit
    _expect(breaker.state == "open",
            f"breaker should be open, is {breaker.state}")
    skipped = mediator.find_genes()
    _expect(skipped.health.sources_skipped == ("EMBL",),
            "open breaker did not short-circuit the source")
    _expect(mediator.cost.breaker_rejections >= 1,
            "breaker rejection not folded into MediationCost")
    timeline.advance(100.0)        # outage over, reset timeout elapsed
    recovered = mediator.find_genes()
    _expect(breaker.state == "closed",
            f"half-open probe did not reclose, state={breaker.state}")
    _expect(recovered.health.complete
            and _answer_keys(recovered) == _baseline_keys(sources),
            "post-recovery answer incomplete")
    return (f"closed→open after 3 failures, skipped while open, "
            f"half-open probe reclosed at t={timeline.now():.0f}")


def scenario_corrupt_snapshot(concurrency: int | None = None) -> str:
    del concurrency                    # monitor-only scenario, no fan-out
    universe = Universe(seed=204, size=24)
    timeline = VirtualClock()
    genbank = FaultyRepository(GenBankRepository(universe), timeline, seed=7)
    monitor = SnapshotMonitor(genbank)
    baseline = set(genbank.accessions())
    genbank.corrupt_with_rate(1.0)
    delivered = []
    for __ in range(3):
        genbank.advance(3)
        delivered.extend(monitor.poll())
    truly_deleted = baseline - set(genbank.accessions())
    fabricated = {delta.accession for delta in delivered
                  if delta.operation == DELETE} - truly_deleted
    _expect(not fabricated,
            f"corrupt dumps fabricated deletions: {sorted(fabricated)}")
    _expect(monitor.health.quarantined > 0,
            "three corrupt dumps produced no quarantined record")
    genbank.corrupt_with_rate(0.0)
    monitor.poll()
    clean_state = monitor._split_snapshot(genbank.inner.snapshot())
    _expect(monitor._images == clean_state,
            "monitor did not converge to the true state after a clean poll")
    return (f"{monitor.health.quarantined} quarantined, "
            f"0 fabricated deletes, converged after clean poll")


def scenario_log_channel_loss(concurrency: int | None = None) -> str:
    del concurrency                    # monitor-only scenario, no fan-out
    universe = Universe(seed=205, size=24)
    timeline = VirtualClock()
    relational = FaultyRepository(RelationalRepository(universe),
                                  timeline, seed=9)
    monitor = LogMonitor(relational)
    delivered = []
    relational.advance(4)
    delivered.extend(monitor.poll())            # healthy log poll
    relational.drop_log_channel()
    relational.advance(4)
    fallback = monitor.poll()                   # snapshot-diff fallback
    delivered.extend(fallback)
    _expect(monitor.health.degraded_polls == 1,
            "log loss did not degrade to snapshot polling")
    _expect(fallback, "fallback poll missed the outage-window changes")
    relational.restore_log_channel()
    relational.advance(4)
    delivered.extend(monitor.poll())            # log again; no re-delivery
    ids = [delta.delta_id for delta in delivered]
    _expect(len(ids) == len(set(ids)),
            "a delta was delivered twice across the fallback boundary")
    expected = {
        accession: monitor._normalize(relational.render_record(
            relational.record_state(accession)))
        for accession in relational.accessions()
    }
    _expect(monitor._images == expected,
            "monitor images diverged from the source after resync")
    return (f"{len(delivered)} deltas across log loss + resync, "
            f"0 lost, 0 double-delivered")


def scenario_deadline_exhaustion(concurrency: int | None = None) -> str:
    __, timeline, sources = _federation(seed=206)
    embl = sources[1]
    embl.schedule_outage(0.0, 100_000.0)
    mediator = Mediator(
        sources,
        retry_policy=RetryPolicy(max_attempts=10, base_delay=30.0,
                                 multiplier=2.0, jitter=0.0, deadline=40.0),
        timeline=timeline, max_concurrency=concurrency,
    )
    answers = mediator.find_genes()
    health = answers.health
    _expect(health.deadline_hit, "deadline budget was never enforced")
    _expect("EMBL" in health.sources_failed,
            f"expected EMBL failed on deadline, got {health.sources_failed}")
    _expect(health.outcome("EMBL").attempts < 10,
            "deadline did not cap the attempt count")
    _expect(health.elapsed <= 40.0 + 30.0,
            f"query overshot its budget: t+{health.elapsed:.0f}")
    live_keys = _answer_keys(
        Mediator([sources[0].inner, sources[2].inner]).find_genes()
    )
    _expect(_answer_keys(answers) == live_keys,
            "deadline-degraded answer lost live-source rows")
    return (f"budget 40.0 capped EMBL at "
            f"{health.outcome('EMBL').attempts} attempts; "
            f"{len(answers)} rows, t+{health.elapsed:.0f}")


def scenario_push_channel_loss(concurrency: int | None = None) -> str:
    del concurrency                    # monitor-only scenario, no fan-out
    universe = Universe(seed=207, size=24)
    timeline = VirtualClock()
    swissprot = FaultyRepository(SwissProtRepository(universe),
                                 timeline, seed=11)
    monitor = TriggerMonitor(swissprot)
    delivered = []
    swissprot.advance(3)
    delivered.extend(monitor.poll())            # push delivery
    _expect(len(delivered) == 3, "healthy push channel lost notifications")
    swissprot.drop_push_channel()
    swissprot.advance(4)                        # notifications dropped
    _expect(swissprot.stats.dropped_notifications == 4,
            "proxy failed to drop notifications while the channel was down")
    recovered = monitor.poll()                  # snapshot-diff fallback
    delivered.extend(recovered)
    _expect(monitor.health.degraded_polls >= 1,
            "dead push channel did not degrade the monitor")
    _expect(recovered, "fallback poll missed the dropped notifications")
    swissprot.restore_push_channel()
    swissprot.advance(2)
    delivered.extend(monitor.poll())            # resync + fresh pushes
    ids = [delta.delta_id for delta in delivered]
    _expect(len(ids) == len(set(ids)),
            "a notification was re-delivered after the channel recovered")
    expected = {
        accession: monitor._normalize(swissprot.render_record(
            swissprot.record_state(accession)))
        for accession in swissprot.accessions()
    }
    _expect(monitor._images == expected,
            "monitor images diverged from the source after resync")
    return (f"4 dropped notifications recovered via snapshot diff, "
            f"{len(delivered)} deltas total, none doubled")


def scenario_concurrent_fanout(concurrency: int | None = None) -> str:
    def run(width: int):
        __, timeline, sources = _federation(seed=208)
        for source in sources:
            source.add_latency(2.0)
            source.fail_with_rate(0.05)
        mediator = Mediator(
            sources,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0,
                                     multiplier=2.0, jitter=0.0),
            timeline=timeline, max_concurrency=width,
        )
        answers = mediator.find_genes()
        rows = [(row.source, row.accession, row.sequence_text)
                for row in answers]
        return rows, answers.health.elapsed

    width = concurrency if concurrency is not None else 3
    sequential_rows, sequential_elapsed = run(1)
    rows, elapsed = run(width)
    _expect(rows == sequential_rows,
            "concurrent fusion changed the rows or their order")
    _expect(run(width) == (rows, elapsed),
            "a concurrent run did not replay bit for bit")
    if width > 1:
        _expect(elapsed < sequential_elapsed,
                f"fan-out did not shorten modelled latency "
                f"(t+{elapsed:.0f} vs t+{sequential_elapsed:.0f})")
    return (f"width {width}: rows bit-identical to sequential, "
            f"latency t+{sequential_elapsed:.0f}→t+{elapsed:.0f}, "
            f"replay exact")


def scenario_cache_invalidation_storm(concurrency: int | None = None) -> str:
    __, timeline, sources = _federation(seed=209)
    genbank = sources[0]
    cached = CachedMediator(
        sources,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                 multiplier=2.0, jitter=0.0),
        breaker_policy=BreakerPolicy(failure_threshold=99,
                                     reset_timeout=25.0),
        timeline=timeline, max_concurrency=concurrency,
    )

    # Prime the cache: one extent scan plus a spread of point lookups.
    cached.find_genes()
    lookups = sorted({accession
                      for source in sources
                      for accession in source.accessions()})[:8]
    for accession in lookups:
        cached.gene(accession)

    # The storm: every source churns while GenBank sits in an outage.
    outage_start = timeline.now()
    genbank.schedule_outage(outage_start, outage_start + 50.0)
    touched = set()
    for source in sources:
        for entry in source.advance(5):
            touched.add(entry.accession)

    # Mid-storm sweep: GenBank's poll dies inside the outage, so it goes
    # suspect — its dependent entries are bypassed, never flushed.
    cached.sync()
    _expect("GenBank" in cached.suspect_sources,
            "a failed poll did not mark GenBank suspect")
    _expect(len(cached.cache) > 0,
            "the mid-storm sweep flushed the whole cache")
    probe = cached.gene(lookups[0])
    _expect(probe.from_cache is False,
            "an entry depending on a suspect source was served from cache")

    timeline.advance(60.0)             # outage over
    cached.sync()                      # clean sweep: snapshot diff lands
    _expect(not cached.suspect_sources, "suspicion survived a clean sweep")
    _expect(cached.staleness_bound() == 0.0,
            "a clean sweep did not reset the staleness bound")

    # Precision: entries the storm never touched are still cached.
    untouched = [accession for accession in lookups
                 if accession not in touched]
    _expect(untouched, "the storm touched every primed lookup (seed)")
    for accession in untouched:
        _expect(normalize_query("gene", accession=accession) in cached.cache,
                f"untouched entry {accession} was flushed")

    # Zero staleness: every served answer matches a fault-free mediation
    # over the post-storm sources.
    truth = Mediator([source.inner for source in sources])
    stale = []
    if (_answer_keys(cached.find_genes())
            != _answer_keys(truth.find_genes())):
        stale.append("find_genes")
    hits = 0
    for accession in lookups:
        served = cached.gene(accession)
        hits += served.from_cache
        if ([(view.source, view.sequence_text) for view in served]
                != [(view.source, view.sequence_text)
                    for view in truth.gene(accession)]):
            stale.append(accession)
    _expect(not stale, f"stale cached answers served: {stale}")
    _expect(hits >= len(untouched),
            "surviving entries were not served from cache")
    return (f"storm touched {len(touched)} accessions; "
            f"{cached.cost.cache_invalidations} precise evictions, "
            f"{len(untouched)} untouched entries survived, 0 stale")


def scenario_trace_correlation(concurrency: int | None = None) -> str:
    from repro import obs

    __, timeline, sources = _federation(seed=210)
    embl = sources[1]
    embl.schedule_outage(0.0, 1_000.0)        # outage spanning the storm
    mediator = Mediator(
        sources,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                 multiplier=2.0, jitter=0.0),
        breaker_policy=BreakerPolicy(failure_threshold=3,
                                     reset_timeout=10_000.0),
        timeline=timeline, max_concurrency=concurrency,
    )
    sink = obs.InMemorySink()
    obs.enable(sample_rate=1.0, clock=timeline, sink=sink)
    try:
        storm = mediator.find_genes()         # retry storm: 2 attempts fail
        mediator.find_genes()                 # 3rd failure opens the breaker
        skipped = mediator.find_genes()       # breaker-open short-circuit
    finally:
        obs.disable()

    _expect(len(sink.traces) == 3, f"expected 3 traces, got {len(sink.traces)}")
    for answers in (storm, skipped):
        _expect(answers.health.trace_id is not None,
                "a traced query's health carries no trace id")
    trace_of = {trace[0]["trace"]: trace for trace in sink.traces}
    _expect(storm.health.trace_id != skipped.health.trace_id
            and {storm.health.trace_id,
                 skipped.health.trace_id} <= trace_of.keys(),
            "health.trace_id does not name a captured trace")

    def attempts(trace, source):
        return [span for span in trace
                if span["name"] == "source.attempt"
                and span["attrs"].get("source") == source]

    storm_trace = trace_of[storm.health.trace_id]
    (storm_attempt,) = attempts(storm_trace, "EMBL")
    _expect(storm_attempt["status"] == "error"
            and storm_attempt["attrs"].get("status") == "failed"
            and storm_attempt["attrs"].get("retries") == 1,
            f"retry storm not annotated: {storm_attempt['attrs']}")

    skipped_trace = trace_of[skipped.health.trace_id]
    (skip_attempt,) = attempts(skipped_trace, "EMBL")
    _expect(skip_attempt["attrs"].get("status") == "skipped"
            and skip_attempt["attrs"].get("breaker") == "open",
            f"breaker-open not annotated: {skip_attempt['attrs']}")
    degraded = [span for span in skipped_trace
                if span["attrs"].get("degraded") is True]
    _expect(degraded and all("EMBL" in span["attrs"]["unavailable"]
                             for span in degraded),
            "degraded answer not annotated on the mediator span")
    live = attempts(skipped_trace, "GenBank") + attempts(skipped_trace,
                                                         "AceDB")
    _expect(len(live) == 2
            and all(span["attrs"].get("status") == "ok" for span in live),
            "live-source attempts missing from the skipped query's trace")
    return (f"3 traces captured; retry storm, breaker-open and "
            f"degraded-answer annotations all on "
            f"{skipped.health.trace_id}")


def scenario_overload_storm(concurrency: int | None = None) -> str:
    from repro.serving import (
        NORMAL,
        ServingPolicy,
        overload_federation,
        summarize,
        synthetic_workload,
    )

    policy = ServingPolicy(capacity=4, deadline=25.0,
                           brownout_enter_pressure=0.3,
                           brownout_exit_pressure=0.1)
    server, mediator, sources, accessions = overload_federation(
        policy=policy, max_concurrency=concurrency)
    sources[1].schedule_outage(0.0, 60.0)      # EMBL dead under the storm
    storm = synthetic_workload(accessions, count=100, load_factor=6.0,
                               capacity=4, mean_service=3.0, seed=11)
    calm = synthetic_workload(accessions, count=40, load_factor=0.5,
                              capacity=4, mean_service=3.0, seed=12,
                              start=storm[-1].arrival + 30.0)
    results = server.serve(storm + calm)
    stats = summarize(results, budget=policy.deadline)

    storm_good = sum(1 for result in results[:len(storm)]
                     if not result.shed
                     and result.in_deadline(policy.deadline))
    _expect(storm_good > 0,
            "the protected server answered nothing during the storm")
    _expect(stats["shed"] > 0, "a 6x overload storm shed nothing")
    _expect(mediator.cost.retry_budget_denials > 0,
            "the retry budget never denied a retry under the storm")
    _expect(mediator.cost.retries < len(results),
            f"retry amplification unbounded: {mediator.cost.retries} "
            f"retries for {len(results)} requests")
    limiter = server.limiters["EMBL"]
    _expect(limiter.decreases > 0 and limiter.limit < policy.capacity,
            "the AIMD limiter never cut the dead source's width")
    ladder = server.brownout
    _expect(ladder.transitions, "queue pressure never tripped brownout")
    _expect(max(level for __, level in ladder.transitions) >= 1,
            "brownout never stepped above NORMAL")
    _expect(ladder.level == NORMAL,
            f"brownout stuck at {ladder.level_name} after the storm")
    tail = results[-20:]
    _expect(all(not result.shed and result.in_deadline(policy.deadline)
                for result in tail),
            "the calm tail was not served clean after recovery")
    peak = max(level for __, level in ladder.transitions)
    return (f"storm: {storm_good}/{len(storm)} good in-deadline, "
            f"shed {stats['shed_by_reason']}, "
            f"{mediator.cost.retry_budget_denials} retries denied; "
            f"brownout peaked at level {peak}, unwound to NORMAL; "
            f"calm tail clean")


#: Scenario 12: the primary dies mid-append after a rotation, with five
#: statements nobody shipped; bravo alone holds the newer segment.
REPLICA_FAILOVER = (
    [("write",)] * 12 + [("sync",), ("rotate",)] + [("write",)] * 8
    + [("catch_up", "bravo"), ("advance", 2.0)] + [("write",)] * 5
    + [("crash", 30), ("advance", 3.0), ("failover",), ("write",),
       ("sync",)])


def scenario_replica_failover(concurrency: int | None = None) -> str:
    """Scenario 12: the primary dies mid-stream; a follower takes over
    inside the promotion window, and the audit certifies the group."""
    del concurrency                    # single-writer scenario, no fan-out
    record = sim.run(REPLICA_FAILOVER)
    window = record.group.promotion_window
    [(name, epoch, elapsed)] = record.promotions
    _expect((name, epoch) == ("bravo", 2) and elapsed <= window,
            f"bravo must take epoch 2 inside {window} virtual s, got "
            f"{record.promotions!r}")
    _expect(all(outcome == "ok" for __, outcome in record.steps)
            and record.verdict.ok and not record.verdict.lost_unreplicated,
            f"every step must succeed and nothing be lost, got "
            f"{record.verdict.violations!r}")
    return (f"{record.verdict.acknowledgments} acked stmts across a "
            f"rotation; bravo promoted in {elapsed:.2f} virtual s "
            f"(window {window}); 0 lost / 0 duplicated; charlie "
            f"re-follows the new primary")


#: Scenario 13: after a clean sync, flips land in bravo's sealed
#: generation 0, alpha's image, a shipment to charlie and, once charlie
#: alone holds generation 2, that segment; then the primary dies.
BIT_ROT_REPAIR = (
    [("write",)] * 8 + [("rotate",)] + [("write",)] * 8 + [("checkpoint",)]
    + [("write",)] * 4
    + [("sync",), ("scrub", "bravo"), ("scrub", "charlie"),
       ("flip", "bravo", "wal", 300, 0x01), ("scrub", "bravo"),
       ("catch_up", "bravo"), ("scrub", "bravo"),
       ("flip", "alpha", "image", 90, 0x01),
       ("flip", "charlie", "shipment", 1500, 0x01), ("scrub", "charlie")]
    + [("write",)] * 6
    + [("rotate",), ("catch_up", "charlie"),
       ("flip", "charlie", "wal", 2000, 0x01),
       ("crash", 0), ("advance", 3.0), ("failover",)])


def scenario_bit_rot_repair(concurrency: int | None = None) -> str:
    """Scenario 13: seeded bit rot across the replication topology:
    clean state scrubs clean; every flip is detected (per-record CRC32,
    image digest, shipment digest) and none applied; a round repairs
    the rotted segment; promotion refuses the rotted follower."""
    del concurrency                    # single-writer scenario, no fan-out
    record = sim.run(BIT_ROT_REPAIR)
    seen = [getattr(outcome, "kind", outcome) for step, outcome
            in record.steps if step[0] in ("flip", "scrub")]
    [charlie], refused = record.group.followers, record.group.refused
    _expect(seen == ["ok", "ok", "bit_rot", "bit_rot", "ok",
                     "digest_mismatch", "ok", "ok", "bit_rot"]
            and charlie.last_rejection.endswith("digest mismatch in flight")
            and [promotion[:2] for promotion in record.promotions]
            == [("bravo", 2)] and len(refused) == 1
            and refused[0].startswith("charlie: bit_rot")
            and record.verdict.ok,
            f"every flip must be detected and contained and charlie "
            f"refused; got {seen}, {charlie.last_rejection!r}, "
            f"{refused!r}, {record.verdict.violations!r}")
    flips = [outcome for step, outcome in record.steps if step[0] == "flip"]
    detected = sum(outcome != "ok" for outcome in flips) \
        + charlie.rejected_shipments
    return (f"{len(flips)} seeded flips (sealed segment, image, in-flight, "
            f"promote-time) — {detected} detected, 0 applied, 0 false "
            f"positives; quarantine + re-fetch converged byte-identical; "
            f"rotted charlie refused promotion")


def split_brain(lease_timeout: float = 2.0, duration: float = 100.0):
    """Scenario 14's schedule: eight replicated writes, then alpha's
    channel is cut for *duration*; alpha acknowledges three writes
    nobody sees and refuses a fourth once its lease dies, and bravo is
    promoted and writes four more."""
    return ([("write",)] * 8 + [("sync",), ("partition", duration, "alpha")]
            + [("write",)] * 3
            + [("advance", lease_timeout + 1.0), ("write",), ("failover",)]
            + [("write",)] * 4 + [("sync",)])


def scenario_split_brain(concurrency: int | None = None) -> str:
    """Scenario 14: a partitioned zombie primary versus the epoch fence:
    refused, fenced, demoted, its lost acknowledgments named, and the
    run certified by the write-history auditor."""
    del concurrency                    # single-writer scenario, no fan-out
    record = sim.run(split_brain())
    refused = [outcome for __, outcome in record.steps if outcome != "ok"]
    _expect(len(refused) == 1 and isinstance(refused[0], LeaseError)
            and refused[0].kind == "expired",
            f"exactly one write must be refused on the expired lease, "
            f"got {refused!r}")
    _expect([promotion[:2] for promotion in record.promotions]
            == [("bravo", 2)],
            f"bravo must take epoch 2, got {record.promotions!r}")
    fenced = sum(fence[3] for fence in record.fences)
    _expect(fenced > 0, "the survivor must fence the zombie's "
                        "stale-epoch shipments")
    [divergence] = record.divergences
    lost = [(entry.generation, entry.index)
            for entry in divergence.acknowledged_lost]
    verdict = record.verdict
    _expect(lost == [(0, index) for index in range(8, 11)]
            and divergence.quarantined and verdict.ok
            and [ack.position() for ack in verdict.lost_unreplicated]
            == lost,
            f"the zombie must quarantine its tail and name the lost acks "
            f"(0, 8..10), and the audit certify the run; got {lost}, "
            f"{verdict.violations!r}")
    return (f"epoch 1→2 under a 100s partition: {len(lost)} zombie "
            f"acks fenced ({fenced} shipments), expired lease refused "
            f"loudly, zombie demoted and reported {len(lost)} lost acks; "
            f"audit certified: one writer per epoch, 0 replicated acks "
            f"lost, survivors byte-identical")


MATRIX = ScenarioMatrix(
    title="federation fault-injection scenario matrix:",
    verdict="scenarios degraded and recovered correctly",
    scenarios=(
        ("intermittent-retry", scenario_intermittent_retry),
        ("outage-window", scenario_outage_window),
        ("breaker-recovery", scenario_breaker_recovery),
        ("corrupt-snapshot", scenario_corrupt_snapshot),
        ("log-channel-loss", scenario_log_channel_loss),
        ("deadline-exhaustion", scenario_deadline_exhaustion),
        ("push-channel-loss", scenario_push_channel_loss),
        ("concurrent-fanout", scenario_concurrent_fanout),
        ("cache-invalidation-storm", scenario_cache_invalidation_storm),
        ("trace-correlation", scenario_trace_correlation),
        ("overload-storm", scenario_overload_storm),
        ("replica-failover", scenario_replica_failover),
        ("bit-rot-repair", scenario_bit_rot_repair),
        ("split-brain", scenario_split_brain),
    ),
    passed_label="PASS",
    name_width=22,
)


def self_test(verbose: bool = True, concurrency: int | None = None,
              only: str | None = None) -> bool:
    """The ``python -m repro chaos --self-test`` smoke target: every
    scenario (or just *only*) at fan-out width *concurrency*."""
    return MATRIX.self_test(
        lambda scenario: scenario(concurrency), verbose, only)
