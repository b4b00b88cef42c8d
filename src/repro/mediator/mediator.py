"""The query-driven integration baseline (Figure 1), fault-tolerant.

"Middleware systems, in which the bulk of the query and result
processing takes place in a different location from where the data is
stored" — wrappers extract data from the sources *at query time*, ship
it to the integration system, and the mediator processes it there.

This is the architecture the paper argues against for close-control
workloads, implemented honestly so the Figure 1 benchmark can measure
the trade-off it embodies:

- **freshness**: every query sees the current source state (staleness 0);
- **cost**: every query pays wrapper extraction + shipping + middleware
  processing, multiplied by the number of sources;
- **no reconciliation**: conflicting source answers are returned side by
  side (Table 1, row C8, for the query-driven systems).

Because the underlying repositories are autonomous and unreliable
("simply collections of flat files" that change, disappear, and answer
inconsistently), the mediator treats partial source failure as the
normal case:

- every source call runs under a :class:`RetryPolicy` (exponential
  backoff, deterministic jitter, per-call attempt cap, optional
  per-query deadline budget on the shared virtual clock);
- each source sits behind a :class:`CircuitBreaker`
  (closed → open → half-open) so a dead source stops being hammered;
- queries return **partial answers** plus a :class:`QueryHealth`
  provenance report naming which sources answered, retried, were
  skipped (breaker open), or failed — ``strict=True`` turns a degraded
  answer into a :class:`~repro.errors.MediatorError` instead.

Per-request latency is modelled virtually (a counter, not a sleep), so
benchmarks can report both measured compute time and modelled network
round-trips + backoff delay.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Sequence, TypeVar

from repro.core.ops import contains as motif_contains
from repro.errors import MediatorError, SourceError, WrapperError
from repro.etl.wrappers import (
    PARSE_FAILURES,
    ParsedRecord,
    Wrapper,
    wrapper_for,
)
from repro.mediator.pool import (
    SequentialPool,
    ThreadedPool,
    WorkerPool,
    run_on_tracks,
)
from repro.obs.metrics import LockedCounters
from repro.obs.trace import (
    annotate as _annotate,
    current_trace_id as _current_trace_id,
    span as _span,
)
from repro.sim.clock import VirtualClock
from repro.sources.base import Repository

_T = TypeVar("_T")

#: Per-source outcome states in a :class:`QueryHealth` report.
OK = "ok"                 # answered on the first attempt
RETRIED = "retried"       # answered, but only after at least one retry
SKIPPED = "skipped"       # not asked: its circuit breaker was open
FAILED = "failed"         # asked, retried, and still failed

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class MediationCost(LockedCounters):
    """Work accounting across one mediator's lifetime."""

    metric_group = "mediation"

    source_requests: int = 0
    bytes_shipped: int = 0
    #: Records handed to queries / parsed because their text was new:
    #: wrapped over parsed is the wrappers' reuse ratio.
    records_wrapped: int = 0
    records_parsed: int = 0
    queries_answered: int = 0
    retries: int = 0
    source_failures: int = 0
    breaker_rejections: int = 0
    backoff_delay: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    retry_budget_denials: int = 0
    source_exclusions: int = 0

    def reset(self) -> "MediationCost":
        with self._lock:
            snapshot = MediationCost(
                **{spec.name: getattr(self, spec.name)
                   for spec in fields(self)}
            )
            for spec in fields(self):
                setattr(self, spec.name, spec.default)
        return snapshot


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try a flaky source before giving up on it.

    Delays are virtual-clock units, jitter is deterministic (seeded from
    source, operation, and attempt number), and ``deadline`` caps the
    *whole query's* backoff budget — once spent, remaining sources fail
    fast instead of stretching the answer forever.
    """

    max_attempts: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MediatorError("a retry policy needs at least one attempt")

    def delay_before(self, attempt: int, source: str = "",
                     operation: str = "") -> float:
        """Backoff before *attempt* (attempt 2 waits ``base_delay``…)."""
        exponent = max(0, attempt - 2)
        raw = min(self.max_delay, self.base_delay * self.multiplier ** exponent)
        if not self.jitter:
            return raw
        rng = random.Random((source, operation, attempt).__repr__())
        return raw * (1.0 - self.jitter * rng.random())

    @classmethod
    def no_retries(cls) -> "RetryPolicy":
        """The ablation baseline: one attempt, fail immediately."""
        return cls(max_attempts=1)


@dataclass(frozen=True)
class BreakerPolicy:
    """When a source's circuit opens and how long it stays open."""

    failure_threshold: int = 3
    reset_timeout: float = 30.0


class CircuitBreaker:
    """Per-source closed → open → half-open breaker on the virtual clock.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, calls are rejected without touching the source.  After
    ``reset_timeout`` virtual seconds **exactly one** probe call is let
    through (half-open): success recloses the circuit, failure reopens
    it.  All state transitions happen under a lock, and the half-open
    probe slot is leased — concurrent callers racing :meth:`allow` see
    one winner, and a probe that never reports back frees the slot
    after another ``reset_timeout``, so a crashed probe cannot strand
    queued callers forever.
    """

    def __init__(self, policy: BreakerPolicy, timeline: VirtualClock) -> None:
        self.policy = policy
        self.timeline = timeline
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.times_opened = 0
        self._probe_started: float | None = None
        self._lock = threading.RLock()

    def allow(self) -> bool:
        with self._lock:
            now = self.timeline.now()
            if self.state == OPEN:
                if now - self.opened_at >= self.policy.reset_timeout:
                    self.state = HALF_OPEN
                    self._probe_started = now
                    return True
                return False
            if self.state == HALF_OPEN:
                if (self._probe_started is not None
                        and now - self._probe_started
                        < self.policy.reset_timeout):
                    return False  # another caller holds the probe slot
                self._probe_started = now  # lease expired: new probe
                return True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.state = CLOSED
            self.consecutive_failures = 0
            self.opened_at = None
            self._probe_started = None

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if (self.state == HALF_OPEN
                    or self.consecutive_failures
                    >= self.policy.failure_threshold):
                if self.state != OPEN:
                    self.times_opened += 1
                self.state = OPEN
                self.opened_at = self.timeline.now()
                self._probe_started = None

    def retry_at(self) -> float:
        """Virtual instant at which the next half-open probe is allowed."""
        with self._lock:
            return (self.opened_at or 0.0) + self.policy.reset_timeout

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.state}, "
                f"failures={self.consecutive_failures})")


@dataclass
class SourceOutcome:
    """How one source behaved during one mediator query.

    ``attempts`` numbers attempts *per query*, not per call: a batch
    lookup that asks the same source four times reports attempts 1–4,
    and a fresh query starts again at 1.  ``backoff`` accumulates this
    source's virtual backoff delay; the mediator folds the per-source
    sums into :class:`MediationCost` in sorted source order at query
    end, so the float total is bit-identical no matter how concurrent
    fan-out interleaved the additions.
    """

    source: str
    status: str = OK
    attempts: int = 0
    retries: int = 0
    backoff: float = 0.0
    error: str | None = None
    #: Virtual time this source's calls cost the query (backoff included).
    latency: float = 0.0
    #: Whether any call to this source issued a hedge, and whether the
    #: hedge's answer is the one the query used.
    hedged: bool = False
    hedge_won: bool = False


@dataclass
class QueryHealth:
    """Provenance of a (possibly degraded) mediated answer.

    Failure states are sticky: a source that failed terminally for any
    part of a query stays ``failed`` even if later calls in the same
    query succeeded, so ``complete`` never overstates the answer.

    When the query ran inside a trace, ``trace_id`` names it, so a
    degraded answer's health report correlates with the spans in the
    JSONL sink telling the same story.
    """

    outcomes: dict[str, SourceOutcome] = field(default_factory=dict)
    deadline_hit: bool = False
    elapsed: float = 0.0
    trace_id: str | None = None
    #: Set by the serving layer when admission control rejected the
    #: query before any source work (reason: queue_full / deadline /
    #: brownout); ``queue_wait`` is virtual time spent queued, charged
    #: against the same deadline budget backoff draws from.
    shed: bool = False
    shed_reason: str | None = None
    queue_wait: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def outcome(self, source: str) -> SourceOutcome:
        with self._lock:
            if source not in self.outcomes:
                self.outcomes[source] = SourceOutcome(source=source)
            return self.outcomes[source]

    def _with_status(self, *statuses: str) -> tuple[str, ...]:
        return tuple(sorted(name for name, outcome in self.outcomes.items()
                            if outcome.status in statuses))

    @property
    def sources_ok(self) -> tuple[str, ...]:
        return self._with_status(OK, RETRIED)

    @property
    def sources_retried(self) -> tuple[str, ...]:
        return self._with_status(RETRIED)

    @property
    def sources_skipped(self) -> tuple[str, ...]:
        return self._with_status(SKIPPED)

    @property
    def sources_failed(self) -> tuple[str, ...]:
        return self._with_status(FAILED)

    @property
    def complete(self) -> bool:
        """True when every source contributed to the answer."""
        return (not self.shed and not self.sources_failed
                and not self.sources_skipped)

    @property
    def sources_hedged(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, outcome in self.outcomes.items()
                            if outcome.hedged))

    @property
    def degraded(self) -> bool:
        return not self.complete

    @property
    def total_retries(self) -> int:
        return sum(outcome.retries for outcome in self.outcomes.values())

    def summary(self) -> str:
        if self.shed:
            pieces = [f"shed={self.shed_reason or 'overload'}"]
            if self.queue_wait:
                pieces.append(f"queued {self.queue_wait:.1f}")
            if self.deadline_hit:
                pieces.append("deadline hit")
            return " ".join(pieces)
        pieces = [f"ok={','.join(self.sources_ok) or '-'}"]
        if self.sources_skipped:
            pieces.append(f"skipped={','.join(self.sources_skipped)}")
        if self.sources_failed:
            pieces.append(f"failed={','.join(self.sources_failed)}")
        if self.sources_hedged:
            pieces.append(f"hedged={','.join(self.sources_hedged)}")
        if self.total_retries:
            pieces.append(f"retries={self.total_retries}")
        if self.deadline_hit:
            pieces.append("deadline hit")
        if self.queue_wait:
            pieces.append(f"queued {self.queue_wait:.1f}")
        pieces.append(f"t+{self.elapsed:.1f}")
        return " ".join(pieces)


class MediatedAnswer(list):
    """A list of answers that also carries its :class:`QueryHealth`."""

    health: QueryHealth

    def __init__(self, rows=(), health: QueryHealth | None = None) -> None:
        super().__init__(rows)
        self.health = health or QueryHealth()


class MediatedBatch(dict):
    """A batch-lookup result that also carries its :class:`QueryHealth`."""

    health: QueryHealth

    def __init__(self, items=(), health: QueryHealth | None = None) -> None:
        super().__init__(items)
        self.health = health or QueryHealth()


@dataclass(slots=True)
class MediatedGene:
    """A gene answer in the mediator's global schema (one per source!).

    The mediator does not reconcile: the same accession seen in three
    sources yields three rows, possibly disagreeing.
    """

    accession: str
    source: str
    name: str | None
    organism: str | None
    description: str | None
    sequence_text: str


class LiveSourceWrapper:
    """Query-time access to one repository through its native interface.

    Queryable sources are asked record by record; non-queryable sources
    can only ship their full dump per request — exactly the asymmetry
    that makes query-driven integration expensive over flat-file
    archives.  Every outward call runs through :meth:`resilient`, which
    owns the retry loop and the circuit breaker.

    The source is asked on every extraction, but its text is wrapped
    once per version: the :class:`ParsedRecord` last produced is handed
    out again while the source ships byte-identical text (parsing is a
    pure function of the text, so same text ⇒ same record).  Queryable
    sources keep one record per accession, dropped on "no such record";
    dump-only sources keep exactly the last dump's records, keyed by
    text.  A changed or corrupt payload matches nothing and is parsed.
    """

    def __init__(
        self,
        repository: Repository,
        cost: MediationCost,
        retry_policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        timeline: VirtualClock | None = None,
    ) -> None:
        self.repository = repository
        self.wrapper: Wrapper = wrapper_for(repository.name)
        self.timeline = timeline if timeline is not None else VirtualClock()
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = CircuitBreaker(breaker_policy or BreakerPolicy(),
                                      self.timeline)
        self._cost = cost
        self._kept: dict[str, ParsedRecord] = {}
        self._memo: list[ParsedRecord] | None = None
        self._memo_active = False
        #: Overload controls, installed by
        #: :meth:`Mediator.install_overload_controls` (None = off).
        self.retry_budget = None   # repro.serving.budget.RetryBudget
        self.hedger = None         # repro.serving.hedge.Hedger

    def begin_query(self) -> None:
        """Open a per-query memo scope: repeated extractions within one
        mediator query reuse the first dump, so a non-queryable source
        is shipped and parsed at most once per query.  Freshness is
        untouched — the memo dies with the query."""
        self._memo_active = True
        self._memo = None
        replica = self.hedger.replica if self.hedger is not None else None
        if replica is not None:
            replica._memo_active = True
            replica._memo = None

    def end_query(self) -> None:
        self._memo_active = False
        self._memo = None
        replica = self.hedger.replica if self.hedger is not None else None
        if replica is not None:
            replica._memo_active = False
            replica._memo = None

    def _timed_call(self, call: Callable[[], _T], origin: float):
        """Run *call* on a private clock track branched at *origin*.

        Returns ``(result, error, duration)``: the virtual time the
        call cost is measured but NOT charged to the outer clock — the
        caller decides how much of it the query actually pays, because
        a hedged call overlaps its backup instead of adding to it.
        """
        result, error = None, None
        track = self.timeline.open_track(origin)
        try:
            result = call()
        except (SourceError, WrapperError) as caught:
            error = caught
        finally:
            duration = self.timeline.close_track(track)
        return result, error, duration

    def _hedged_attempt(
        self,
        call: Callable[[], _T],
        hedge_call: Callable[[], _T] | None,
        outcome: SourceOutcome,
    ):
        """One attempt, possibly raced against a backup call.

        The primary runs on a measurement track; if it took longer than
        the hedger's live p95 delay (and a hedge token is available),
        the backup runs on a second track branched at the instant the
        hedge would have been issued, and the attempt's answer and
        elapsed time are first-response-wins arithmetic over the two —
        the primary wins ties.  The outer clock is then charged the
        attempt's *effective* elapsed time exactly once.
        """
        started_at = self.timeline.now()
        hedger = self.hedger
        # The hedge timer is armed when the call *starts*: the delay
        # comes from the histogram as of now, never from the in-flight
        # call's own duration.
        delay = hedger.hedge_delay() if hedger is not None else None
        result, error, duration = self._timed_call(call, started_at)
        if hedger is not None:
            hedger.observe(duration)
        elapsed = duration
        if (hedger is not None and hedge_call is not None
                and hedger.replica is not None):
            if (delay is not None and duration > delay
                    and hedger.try_issue()):
                outcome.hedged = True
                self._cost.bump("hedges_issued")
                backup, backup_error, backup_duration = self._timed_call(
                    hedge_call, started_at + delay)
                backup_done = delay + backup_duration
                if backup_error is None and (error is not None
                                             or backup_done < duration):
                    # The backup's answer lands first (or is the only
                    # one): the query uses it and pays only its time.
                    result, error = backup, None
                    elapsed = backup_done
                    outcome.hedge_won = True
                    hedger.record_win()
                    self._cost.bump("hedges_won")
                elif error is not None:
                    # Both failed: the caller waited for both.
                    elapsed = max(duration, backup_done)
        self.timeline.advance(elapsed)
        outcome.latency += elapsed
        return result, error

    def resilient(
        self,
        operation: str,
        call: Callable[[], _T],
        health: QueryHealth,
        deadline_at: float | None = None,
        hedge_call: Callable[[], _T] | None = None,
    ) -> _T:
        """Run *call* under the retry policy and the circuit breaker.

        Raises :class:`~repro.errors.SourceError` once the source is
        given up on (breaker open, attempts exhausted, deadline budget
        spent, or retry budget empty); the health report is updated
        either way.  When a hedger with a replica is installed and
        *hedge_call* is given, slow attempts race a backup call to the
        replica (see :meth:`_hedged_attempt`).
        """
        name = self.repository.name
        outcome = health.outcome(name)
        with _span("source.attempt", source=name,
                   operation=operation) as spn:
            if not self.breaker.allow():
                outcome.status = SKIPPED
                outcome.error = (f"circuit open until "
                                 f"t={self.breaker.retry_at():.1f}")
                self._cost.bump("breaker_rejections")
                spn.annotate(status=SKIPPED, breaker=OPEN)
                raise SourceError(f"{name} skipped: circuit breaker open",
                                  source=name, operation=operation,
                                  trace_id=health.trace_id)
            attempt = 0
            while True:
                attempt += 1
                outcome.attempts += 1
                result, error = self._hedged_attempt(call, hedge_call,
                                                     outcome)
                if error is None:
                    self.breaker.record_success()
                    if self.retry_budget is not None:
                        self.retry_budget.record_success()
                    if outcome.status not in (FAILED, SKIPPED):
                        outcome.status = RETRIED if outcome.retries else OK
                    spn.annotate(status=outcome.status,
                                 retries=outcome.retries,
                                 breaker=self.breaker.state)
                    if outcome.hedged:
                        spn.annotate(hedged=True,
                                     hedge_won=outcome.hedge_won)
                    return result
                self.breaker.record_failure()
                self._cost.bump("source_failures")
                outcome.error = str(error)
                if attempt >= self.retry_policy.max_attempts:
                    outcome.status = FAILED
                    spn.annotate(status=FAILED, retries=outcome.retries,
                                 breaker=self.breaker.state)
                    raise SourceError(
                        f"{name} failed {operation} after "
                        f"{outcome.attempts} attempt(s) this query: "
                        f"{error}",
                        source=name, operation=operation,
                        attempt=outcome.attempts,
                        trace_id=health.trace_id,
                    ) from error
                delay = self.retry_policy.delay_before(attempt + 1, name,
                                                       operation)
                if (deadline_at is not None
                        and self.timeline.now() + delay > deadline_at):
                    outcome.status = FAILED
                    outcome.error = (f"deadline budget exhausted after "
                                     f"attempt {outcome.attempts}: "
                                     f"{error}")
                    health.deadline_hit = True
                    spn.annotate(status=FAILED, deadline_hit=True,
                                 retries=outcome.retries,
                                 breaker=self.breaker.state)
                    raise SourceError(
                        f"{name}: {outcome.error}",
                        source=name, operation=operation,
                        attempt=outcome.attempts,
                        trace_id=health.trace_id,
                    ) from error
                if (self.retry_budget is not None
                        and not self.retry_budget.try_spend()):
                    outcome.status = FAILED
                    outcome.error = (f"retry budget exhausted after "
                                     f"attempt {outcome.attempts}: {error}")
                    self._cost.bump("retry_budget_denials")
                    spn.annotate(status=FAILED, retry_budget="exhausted",
                                 retries=outcome.retries,
                                 breaker=self.breaker.state)
                    raise SourceError(
                        f"{name}: {outcome.error}",
                        source=name, operation=operation,
                        attempt=outcome.attempts,
                        trace_id=health.trace_id,
                    ) from error
                self.timeline.advance(delay)
                self._cost.bump("retries")
                outcome.backoff += delay
                outcome.retries += 1

    def fetch_all(self) -> list[ParsedRecord]:
        """Extract every record, at query time."""
        if self._memo is not None:
            return self._memo
        records = self._extract_all()
        if self._memo_active:
            self._memo = records
        return records

    def _wrap(self, key: str, text: str) -> ParsedRecord:
        """The record *text* wraps to: the one kept under *key* while
        the source ships the same text, a fresh parse otherwise."""
        record = self._kept.get(key)
        if record is None or record.raw != text:
            try:
                record = self.wrapper.parse_record(text)
            except PARSE_FAILURES as error:
                # To the retry loop it is one thing: a corrupt payload.
                raise WrapperError(repr(error)) from error
            self._cost.bump("records_parsed")
        return record

    def _extract_all(self) -> list[ParsedRecord]:
        records: list[ParsedRecord] = []
        if self.repository.capabilities.queryable:
            keys = []
            requests = shipped = 0
            try:
                for accession in self.repository.query_accessions():
                    requests += 1
                    text = self.repository.query(accession)
                    if text is not None:
                        shipped += len(text)
                        records.append(self._wrap(accession, text))
                        keys.append(accession)
            finally:
                self._cost.bump("source_requests", requests)
                self._cost.bump("bytes_shipped", shipped)
        else:
            self._cost.bump("source_requests")
            dump = self.repository.snapshot()
            self._cost.bump("bytes_shipped", len(dump))
            records = [self._wrap(text, text)
                       for text in self.wrapper.split_snapshot(dump)]
            keys = [record.raw for record in records]
        self._kept = dict(zip(keys, records))
        self._cost.bump("records_wrapped", len(records))
        return records

    def fetch(self, accession: str) -> ParsedRecord | None:
        """Extract one record (cheap only for queryable sources)."""
        if self.repository.capabilities.queryable:
            self._cost.bump("source_requests")
            text = self.repository.query(accession)
            if text is None:
                self._kept.pop(accession, None)
                return None
            self._cost.bump("bytes_shipped", len(text))
            self._cost.bump("records_wrapped")
            record = self._kept[accession] = self._wrap(accession, text)
            return record
        for record in self.fetch_all():
            if record.accession == accession:
                return record
        return None


class Mediator:
    """The integration system of Figure 1: decompose, ship, fuse.

    Non-strict queries implement degraded-answer semantics: every row
    derivable from the sources that answered is returned, and the
    accompanying :class:`QueryHealth` (``result.health``, also kept as
    ``mediator.last_health``) names the sources that did not.
    """

    def __init__(
        self,
        sources: Sequence[Repository],
        retry_policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        timeline: VirtualClock | None = None,
        max_concurrency: int | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        if not sources:
            raise MediatorError("a mediator needs at least one source")
        if max_concurrency is None:
            max_concurrency = len(sources)
        if max_concurrency < 1:
            raise MediatorError("max_concurrency must be at least 1")
        names = [repository.name for repository in sources]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise MediatorError(
                f"duplicate source names {duplicates}: each repository "
                f"must be mediated at most once or answers double-count"
            )
        if timeline is None:
            timeline = next(
                (candidate for candidate in
                 (getattr(repository, "timeline", None)
                  for repository in sources)
                 if isinstance(candidate, VirtualClock)),
                None,
            ) or VirtualClock()
        self.timeline = timeline
        self.retry_policy = retry_policy or RetryPolicy()
        self.max_concurrency = max_concurrency
        if pool is None:
            pool = (SequentialPool() if max_concurrency == 1
                    else ThreadedPool(max_concurrency))
        self.pool = pool
        self.cost = MediationCost()
        self.wrappers = [
            LiveSourceWrapper(repository, self.cost,
                              retry_policy=self.retry_policy,
                              breaker_policy=breaker_policy,
                              timeline=timeline)
            for repository in sources
        ]
        self.last_health = QueryHealth()

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(w.repository.name for w in self.wrappers)

    @contextmanager
    def _query_scope(self) -> Iterator[None]:
        """One mediator query = one extraction per source, at most."""
        for wrapper in self.wrappers:
            wrapper.begin_query()
        try:
            yield
        finally:
            for wrapper in self.wrappers:
                wrapper.end_query()

    def _begin_health(
        self, deadline_at: float | None = None
    ) -> tuple[QueryHealth, float, float | None]:
        """Open a health report; *deadline_at* (absolute virtual time)
        overrides the retry policy's relative deadline so an outer
        serving layer can charge queue wait and cache time against the
        same budget backoff draws from."""
        health = QueryHealth()
        health.trace_id = _current_trace_id()
        started = self.timeline.now()
        if deadline_at is None and self.retry_policy.deadline is not None:
            deadline_at = started + self.retry_policy.deadline
        return health, started, deadline_at

    def install_overload_controls(
        self,
        retry_budgets: dict | None = None,
        hedgers: dict | None = None,
    ) -> None:
        """Attach serving-layer controls to the per-source wrappers.

        ``retry_budgets`` / ``hedgers`` map source name → control; a
        missing name leaves that source uncontrolled.  Installed by
        :class:`repro.serving.FederationServer`, but callable directly
        for tests and ad-hoc setups.
        """
        for wrapper in self.wrappers:
            name = wrapper.repository.name
            if retry_budgets is not None:
                wrapper.retry_budget = retry_budgets.get(name)
            if hedgers is not None:
                wrapper.hedger = hedgers.get(name)

    def _excluded_job(self, wrapper: LiveSourceWrapper,
                      health: QueryHealth, empty):
        """A no-op job recording that overload protection benched this
        source for this query (adaptive concurrency or brownout)."""
        def job():
            outcome = health.outcome(wrapper.repository.name)
            outcome.status = SKIPPED
            outcome.error = "excluded by overload protection"
            self.cost.bump("source_exclusions")
            return empty
        return job

    def _fan_out(self, jobs: Sequence[Callable[[], _T]]) -> list[_T]:
        """Run one job per source on the pool; results in job order.

        Under a parallel pool the jobs go through
        :func:`~repro.mediator.pool.run_on_tracks`: each source's
        backoff and deadline arithmetic is independent of how its
        siblings are scheduled, and modelled latency is wall-clock
        under ``pool.max_workers``-way parallelism, not the per-source
        sum.
        """
        with _span("mediator.fan_out", jobs=len(jobs),
                   width=self.pool.max_workers,
                   parallel=self.pool.parallel) as spn:
            wrapped = self.cost.records_wrapped
            parsed = self.cost.records_parsed
            if not self.pool.parallel or len(jobs) <= 1:
                results = [job() for job in jobs]
            else:
                results = run_on_tracks(self.timeline, jobs, self.pool.run,
                                        self.pool.max_workers)
            parsed = self.cost.records_parsed - parsed
            wrapped = self.cost.records_wrapped - wrapped
            spn.annotate(parsed=parsed, reused=max(0, wrapped - parsed))
            return results

    def _finish(self, health: QueryHealth, started: float,
                strict: bool) -> None:
        health.elapsed = self.timeline.now() - started
        backoff = 0.0
        for name in sorted(health.outcomes):
            backoff += health.outcomes[name].backoff
        if backoff:
            self.cost.bump("backoff_delay", backoff)
        self.last_health = health
        if health.degraded:
            _annotate(degraded=True,
                      unavailable=",".join(health.sources_failed
                                           + health.sources_skipped),
                      elapsed=health.elapsed)
        else:
            _annotate(degraded=False, elapsed=health.elapsed)
        if strict and health.degraded:
            unavailable = health.sources_failed + health.sources_skipped
            raise MediatorError(
                "strict mediation failed; unavailable sources: "
                + ", ".join(unavailable)
                + f" ({health.summary()})"
            )

    # -- the global-schema query API ----------------------------------------------

    @staticmethod
    def _as_gene(record: ParsedRecord, source: str) -> MediatedGene:
        return MediatedGene(
            accession=record.accession,
            source=source,
            name=record.name,
            organism=record.organism,
            description=record.description,
            # Views outlive the query in caches and callers' hands:
            # all views of one sequence share one text.
            sequence_text=sys.intern(str(record.dna)),
        )

    def find_genes(
        self,
        organism: str | None = None,
        name_prefix: str | None = None,
        contains_motif: str | None = None,
        min_length: int | None = None,
        predicate: Callable[[MediatedGene], bool] | None = None,
        strict: bool = False,
        *,
        deadline_at: float | None = None,
        exclude: Sequence[str] = (),
    ) -> MediatedAnswer:
        """Answer a selection over the virtual ``genes`` view.

        All filtering happens in the middleware, after extraction — the
        defining property of the architecture.  Sources that stay down
        after retries are reported in ``result.health`` and, under
        ``strict=True``, raise :class:`~repro.errors.MediatorError`.
        ``deadline_at``/``exclude`` are the serving layer's knobs: an
        absolute deadline (arrival-anchored) and sources to bench for
        this query (adaptive concurrency / brownout).
        """
        with _span("mediator.find_genes", sources=len(self.wrappers)):
            return self._find_genes(organism, name_prefix, contains_motif,
                                    min_length, predicate, strict,
                                    deadline_at, exclude)

    def _find_genes(
        self,
        organism: str | None,
        name_prefix: str | None,
        contains_motif: str | None,
        min_length: int | None,
        predicate: Callable[[MediatedGene], bool] | None,
        strict: bool,
        deadline_at: float | None = None,
        exclude: Sequence[str] = (),
    ) -> MediatedAnswer:
        self.cost.bump("queries_answered")
        health, started, deadline_at = self._begin_health(deadline_at)
        answers = MediatedAnswer(health=health)
        excluded = frozenset(exclude)

        def job_for(wrapper: LiveSourceWrapper) -> Callable[[], list]:
            if wrapper.repository.name in excluded:
                return self._excluded_job(wrapper, health, [])
            replica = (wrapper.hedger.replica
                       if wrapper.hedger is not None else None)
            hedge_call = replica.fetch_all if replica is not None else None

            def job() -> list[MediatedGene]:
                try:
                    records = wrapper.resilient(
                        "fetch_all", wrapper.fetch_all, health, deadline_at,
                        hedge_call=hedge_call,
                    )
                except SourceError:
                    return []
                rows = []
                for record in records:
                    if not self._matches(record, organism, name_prefix,
                                         contains_motif, min_length):
                        continue
                    row = self._as_gene(record, wrapper.repository.name)
                    if predicate is None or predicate(row):
                        rows.append(row)
                return rows
            return job

        with self._query_scope():
            per_source = self._fan_out([job_for(wrapper)
                                        for wrapper in self.wrappers])
            with _span("mediator.fusion", sources=len(per_source)):
                for rows in per_source:
                    answers.extend(rows)
        self._finish(health, started, strict)
        return answers

    @staticmethod
    def _matches(
        record: ParsedRecord,
        organism: str | None,
        name_prefix: str | None,
        contains_motif: str | None,
        min_length: int | None,
    ) -> bool:
        """Tested on the wrapper's value, before any view is built."""
        if record.dna is None:
            return False  # protein databanks don't serve genes
        if organism is not None and record.organism != organism:
            return False
        if name_prefix is not None and not (
            record.name or ""
        ).startswith(name_prefix):
            return False
        if min_length is not None and len(record.dna) < min_length:
            return False
        if contains_motif is not None and not motif_contains(
                record.dna, contains_motif):
            return False
        return True

    def _views_job(
        self,
        wrapper: LiveSourceWrapper,
        accessions: Sequence[str],
        health: QueryHealth,
        deadline_at: float | None,
    ) -> Callable[[], dict]:
        """One source's share of a (batch) lookup: accession → view.

        The whole batch runs on the source's worker, looping accessions
        in input order, so the per-source call sequence is identical to
        the sequential mediator's and the source's seeded fault stream
        replays bit for bit at any concurrency.
        """
        replica = (wrapper.hedger.replica
                   if wrapper.hedger is not None else None)

        def job() -> dict[str, MediatedGene]:
            views: dict[str, MediatedGene] = {}
            for accession in accessions:
                hedge_call = (
                    (lambda acc=accession: replica.fetch(acc))
                    if replica is not None else None)
                try:
                    record = wrapper.resilient(
                        "fetch", lambda: wrapper.fetch(accession),
                        health, deadline_at, hedge_call=hedge_call,
                    )
                except SourceError:
                    continue
                if record is not None and record.dna is not None:
                    views[accession] = self._as_gene(
                        record, wrapper.repository.name)
            return views
        return job

    def _fan_out_views(
        self,
        accessions: Sequence[str],
        health: QueryHealth,
        deadline_at: float | None,
        exclude: frozenset = frozenset(),
    ) -> dict[str, list[MediatedGene]]:
        """Per-accession views fused in wrapper order, fanned per source."""
        per_wrapper = self._fan_out(
            [self._excluded_job(wrapper, health, {})
             if wrapper.repository.name in exclude
             else self._views_job(wrapper, accessions, health, deadline_at)
             for wrapper in self.wrappers]
        )
        with _span("mediator.fusion", accessions=len(accessions)):
            fused: dict[str, list[MediatedGene]] = {
                accession: [] for accession in accessions
            }
            for views in per_wrapper:  # pool order == wrapper order
                for accession, view in views.items():
                    fused[accession].append(view)
            return fused

    def gene(self, accession: str, strict: bool = False, *,
             deadline_at: float | None = None,
             exclude: Sequence[str] = ()) -> MediatedAnswer:
        """All source views of one accession (unreconciled, C8)."""
        with _span("mediator.gene", accession=accession):
            self.cost.bump("queries_answered")
            health, started, deadline_at = self._begin_health(deadline_at)
            with self._query_scope():
                fused = self._fan_out_views([accession], health, deadline_at,
                                            frozenset(exclude))
            self._finish(health, started, strict)
            return MediatedAnswer(fused[accession], health=health)

    def genes(
        self, accessions: Sequence[str], strict: bool = False, *,
        deadline_at: float | None = None,
        exclude: Sequence[str] = (),
    ) -> MediatedBatch:
        """Batch lookup: many accessions, ONE query.

        Inside the shared query scope a non-queryable source ships its
        dump once for the whole batch, not once per accession — the
        per-query memo is what keeps :class:`MediationCost` honest here.
        """
        with _span("mediator.genes", accessions=len(accessions)):
            self.cost.bump("queries_answered")
            health, started, deadline_at = self._begin_health(deadline_at)
            with self._query_scope():
                batch = MediatedBatch(
                    self._fan_out_views(list(dict.fromkeys(accessions)),
                                        health, deadline_at,
                                        frozenset(exclude)),
                    health=health,
                )
            self._finish(health, started, strict)
            return batch

    def disagreements(self, accession: str) -> dict[str, set[str]]:
        """Field → distinct values across sources (what C8 looks like)."""
        views = self.gene(accession)
        result: dict[str, set[str]] = {}
        for field_name in ("name", "organism", "description",
                           "sequence_text"):
            values = {getattr(view, field_name) or "" for view in views}
            if len(values) > 1:
                result[field_name] = values
        return result
