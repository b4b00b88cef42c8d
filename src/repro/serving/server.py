"""The federation server: a virtual-time serving loop over a mediator.

This is where the five overload mechanisms compose.  A workload is a
list of :class:`Request` objects with virtual arrival times; ``serve``
replays them through a deterministic event loop:

1. **arrival** — queue pressure feeds the brownout controller, then the
   request is admitted, answered from cache (brownout cache-only), or
   shed (``queue_full`` / ``deadline`` / ``brownout``) before any
   source work;
2. **start** — when one of ``capacity`` lanes frees up, the highest-
   priority queued request starts; if its deadline already passed in
   the queue it is shed *at dequeue* and reports ``deadline_hit``
   honestly;
3. **execution** — the whole query runs on a clock track branched at
   its *arrival* instant: queue wait is advanced first (under a
   ``queue.wait`` span, so traces show it as its own layer), then the
   mediator runs with ``deadline_at`` anchored at arrival — queue
   wait, cache time, source latency, and retry backoff all draw from
   one budget;
4. **completion** — the observed service time feeds the admission
   queue's wait estimator, per-source latencies feed the AIMD
   limiters, and the lane picks up the next queued request.

Determinism: arrivals are processed in ``(arrival, input order)``,
lanes are picked lowest-index-first, the queue pops ``(priority,
sequence)``, and every duration is virtual — identical seeds give
identical queue/shed/hedge decisions at any thread-pool width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MediatorError, OverloadError
from repro.mediator.mediator import (
    LiveSourceWrapper,
    MediatedAnswer,
    QueryHealth,
)
from repro.obs.trace import span as _span
from repro.serving.admission import AdmissionQueue
from repro.serving.brownout import BrownoutController
from repro.serving.budget import RetryBudget
from repro.serving.hedge import Hedger
from repro.serving.limiter import AdaptiveLimiter
from repro.serving.policy import INTERACTIVE, PRIORITY_NAMES, ServingPolicy

#: Query kinds a request may carry (mediator / cached-mediator methods).
REQUEST_KINDS = ("find_genes", "gene", "genes")


@dataclass
class Request:
    """One client query with a virtual arrival time.

    ``arrival`` is an offset from the instant ``serve`` is called;
    ``params`` are the keyword arguments of the named query method.
    ``deadline`` overrides the policy's per-query budget (virtual
    units, charged from arrival).
    """

    kind: str
    params: dict = field(default_factory=dict)
    priority: int = INTERACTIVE
    arrival: float = 0.0
    deadline: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise MediatorError(f"unknown request kind {self.kind!r} "
                                f"(one of {REQUEST_KINDS})")
        if self.priority not in PRIORITY_NAMES:
            raise MediatorError(f"unknown priority class {self.priority!r}")

    @property
    def priority_name(self) -> str:
        return PRIORITY_NAMES[self.priority]


@dataclass
class ServedResult:
    """What one request got back, with full timing provenance.

    All times are offsets from the ``serve`` call's start instant;
    ``latency`` is what the *client* saw (arrival → completion,
    queue wait included).
    """

    request: Request
    answer: object
    arrival: float
    started: float
    completed: float
    queue_wait: float = 0.0
    from_cache: bool = False

    @property
    def health(self) -> QueryHealth:
        return self.answer.health

    @property
    def shed(self) -> bool:
        return self.health.shed

    @property
    def shed_reason(self) -> str | None:
        return self.health.shed_reason

    @property
    def latency(self) -> float:
        return self.completed - self.arrival

    def in_deadline(self, budget: float | None) -> bool:
        """Did the client get a real answer inside its budget?"""
        if self.shed:
            return False
        if budget is None:
            return True
        return self.latency <= budget + 1e-9


@dataclass
class _Queued:
    """Book-keeping for a request sitting in the admission queue."""

    request: Request
    arrive_abs: float
    deadline_abs: float | None
    #: Position of the request in the serve() input (places the result).
    index: int = -1


class FederationServer:
    """Overload-safe serving in front of a (cached) mediator.

    ``mediator`` may be a :class:`~repro.mediator.Mediator` or a
    :class:`~repro.mediator.CachedMediator` (brownout's cache-only rung
    needs the latter).  ``replicas`` maps source name → a replica
    :class:`~repro.sources.base.Repository` hedged requests may fall
    back to; sources without a replica are observed but never hedged.
    """

    def __init__(
        self,
        mediator,
        policy: ServingPolicy | None = None,
        *,
        replicas: dict | None = None,
        strict: bool = False,
    ) -> None:
        self.mediator = mediator
        #: The raw mediator (unwraps CachedMediator for wrapper access).
        self.inner = getattr(mediator, "mediator", mediator)
        self.policy = policy if policy is not None else ServingPolicy()
        self.timeline = mediator.timeline
        self.strict = strict
        self.queue = AdmissionQueue(
            self.policy.queue_capacity,
            wait_factor=self.policy.admission_wait_factor,
        )
        names = mediator.source_names
        self.budgets: dict[str, RetryBudget] = {}
        if self.policy.retry_budget_ratio is not None:
            self.budgets = {
                name: RetryBudget(name,
                                  ratio=self.policy.retry_budget_ratio,
                                  burst=self.policy.retry_budget_burst)
                for name in names
            }
        self.hedgers: dict[str, Hedger] = {}
        if self.policy.hedging:
            self.hedgers = {
                name: Hedger(
                    name,
                    quantile=self.policy.hedge_quantile,
                    ratio=self.policy.hedge_ratio,
                    burst=self.policy.hedge_burst,
                    min_observations=self.policy.hedge_min_observations,
                )
                for name in names
            }
            for name, repository in (replicas or {}).items():
                if name not in self.hedgers:
                    raise MediatorError(
                        f"replica for unmediated source {name!r}")
                # The replica shares the mediator's cost accounting and
                # timeline but not its breaker — a hedge is a single
                # best-effort call, not a resilient one.
                self.hedgers[name].replica = LiveSourceWrapper(
                    repository, self.inner.cost,
                    retry_policy=self.inner.retry_policy,
                    timeline=self.timeline,
                )
        self.limiters: dict[str, AdaptiveLimiter] = {}
        if self.policy.adaptive_concurrency:
            self.limiters = {
                name: AdaptiveLimiter(
                    name,
                    min_limit=self.policy.aimd_min_limit,
                    max_limit=self.policy.max_source_limit,
                    increase=self.policy.aimd_increase,
                    backoff=self.policy.aimd_backoff,
                    latency_target=self.policy.aimd_latency_target,
                    cooldown=self.policy.aimd_cooldown,
                )
                for name in names
            }
        self.brownout = (
            BrownoutController(
                enter_pressure=self.policy.brownout_enter_pressure,
                exit_pressure=self.policy.brownout_exit_pressure,
                enter_after=self.policy.brownout_enter_after,
                exit_after=self.policy.brownout_exit_after,
            )
            if self.policy.brownout else None
        )
        self.inner.install_overload_controls(
            self.budgets or None, self.hedgers or None)
        #: (start_abs, end_abs, sources) per executed query — the AIMD
        #: limiters' in-flight accounting reads these.
        self._intervals: list[tuple[float, float, frozenset]] = []
        self._base = 0.0

    # -- introspection ----------------------------------------------------------

    @property
    def source_names(self) -> tuple[str, ...]:
        return self.mediator.source_names

    def budget_for(self, request: Request) -> float | None:
        """The per-query deadline budget, charged from arrival."""
        if request.deadline is not None:
            return request.deadline
        if self.policy.deadline is not None:
            return self.policy.deadline
        return self.inner.retry_policy.deadline

    # -- the serving loop -------------------------------------------------------

    def serve(self, requests: Sequence[Request]) -> list[ServedResult]:
        """Replay *requests* through the admission queue and the lanes.

        Returns one :class:`ServedResult` per request, in input order.
        The shared clock advances once, at the end, by the workload's
        makespan — callers before/after see consistent virtual time.
        """
        base = self.timeline.now()
        self._base = base
        self._intervals = []
        capacity = self.policy.capacity
        lanes = [base] * capacity
        results: dict[int, ServedResult] = {}
        ordered = sorted(enumerate(requests),
                         key=lambda pair: (pair[1].arrival, pair[0]))
        seq = 0
        for index, request in ordered:
            arrive_abs = base + request.arrival
            self._drain(lanes, results, until=arrive_abs)
            results_entry = self._arrive(request, index, seq, arrive_abs,
                                         lanes)
            if results_entry is not None:
                results[index] = results_entry
            seq += 1
        self._drain(lanes, results, until=None)
        end = max([base] + [result.completed + base
                            for result in results.values()])
        if end > base:
            self.timeline.advance(end - base)
        ordered_results = [results[index] for index in range(len(requests))]
        return ordered_results

    def admit_inline(self, priority: int = INTERACTIVE) -> str | None:
        """Admission verdict for work executed outside :meth:`serve`.

        The BiQL session calls this before running a statement inline:
        it consults the brownout ladder and the queue bound but does
        not enqueue — inline work runs immediately or not at all.
        Returns the shed reason, or ``None`` to proceed.
        """
        if self.brownout is not None and self.brownout.sheds(priority):
            return self.queue.note_shed("brownout", priority)
        if (self.policy.admission_control
                and self.queue.depth >= self.queue.capacity):
            return self.queue.note_shed("queue_full", priority)
        return None

    # -- arrival handling -------------------------------------------------------

    def _arrive(self, request: Request, index: int, seq: int,
                arrive_abs: float, lanes: list) -> ServedResult | None:
        """Admit, cache-serve, or shed one arrival.  Returns a result
        for immediately-resolved requests (shed / cache hit), or None
        when the request was queued (resolved later by the drain)."""
        priority = request.priority
        if self.brownout is not None:
            self.brownout.note_pressure(self.queue.pressure, arrive_abs)
            if self.brownout.sheds(priority):
                self.queue.note_shed("brownout", priority)
                return self._shed_result(request, "brownout",
                                         arrival=arrive_abs - self._base)
            if self.brownout.cache_only(priority):
                return self._cache_only(request, arrive_abs)
        budget = self.budget_for(request)
        item = _Queued(
            request=request,
            arrive_abs=arrive_abs,
            deadline_abs=(arrive_abs + budget
                          if budget is not None else None),
            index=index,
        )
        if self.policy.admission_control:
            busy = sum(1 for lane in lanes if lane > arrive_abs)
            reason = self.queue.try_admit(
                item, priority=priority, seq=seq,
                remaining_budget=budget,
                busy_lanes=busy, lanes=len(lanes),
            )
            if reason is not None:
                return self._shed_result(request, reason,
                                         arrival=arrive_abs - self._base)
        else:
            self.queue.push(item, priority=priority, seq=seq)
        return None

    def _cache_only(self, request: Request,
                    arrive_abs: float) -> ServedResult:
        """Brownout level 1: answer from cache or shed, never go live."""
        peek = getattr(self.mediator, "peek", None)
        answer = peek(request.kind, **request.params) if peek else None
        arrival = arrive_abs - self._base
        if answer is None:
            self.queue.note_shed("brownout", request.priority)
            return self._shed_result(request, "brownout", arrival=arrival)
        with _span("serving.request", kind=request.kind,
                   priority=request.priority_name) as spn:
            spn.annotate(admitted=True, cache_only=True)
        return ServedResult(request=request, answer=answer,
                            arrival=arrival, started=arrival,
                            completed=arrival, from_cache=True)

    def _shed_result(self, request: Request, reason: str, *,
                     arrival: float, queue_wait: float = 0.0,
                     completed: float | None = None,
                     deadline_hit: bool = False) -> ServedResult:
        health = QueryHealth()
        health.shed = True
        health.shed_reason = reason
        health.queue_wait = queue_wait
        health.deadline_hit = deadline_hit
        with _span("serving.request", kind=request.kind,
                   priority=request.priority_name) as spn:
            spn.annotate(shed=reason, queue_wait=queue_wait)
            health.trace_id = spn.trace_id
        if self.strict:
            raise OverloadError(
                f"query shed ({reason}) to protect the federation",
                reason=reason, priority=request.priority,
            )
        answer = MediatedAnswer(health=health)
        answer.from_cache = False
        done = completed if completed is not None else arrival + queue_wait
        return ServedResult(request=request, answer=answer,
                            arrival=arrival, started=done, completed=done,
                            queue_wait=queue_wait)

    # -- lane scheduling --------------------------------------------------------

    def _drain(self, lanes: list, results: dict,
               until: float | None) -> None:
        """Start queued requests on free lanes up to instant *until*
        (None = drain everything).  Lane choice is lowest-free-then-
        lowest-index; queue order is (priority, sequence)."""
        while len(self.queue):
            lane = min(range(len(lanes)), key=lambda i: (lanes[i], i))
            head = self.queue.peek()
            __, __, item = head
            start_abs = max(lanes[lane], item.arrive_abs)
            if until is not None and start_abs > until:
                return
            priority, seq, item = self.queue.pop()
            index = item.index
            if (self.policy.admission_control
                    and item.deadline_abs is not None
                    and start_abs >= item.deadline_abs):
                # Its whole budget evaporated in the queue: shed at
                # dequeue, honestly reporting both facts.
                wait = start_abs - item.arrive_abs
                self.queue.note_shed("deadline", priority)
                results[index] = self._shed_result(
                    item.request, "deadline",
                    arrival=item.arrive_abs - self._base,
                    queue_wait=wait,
                    completed=start_abs - self._base,
                    deadline_hit=True,
                )
                continue
            result = self._run(item, start_abs)
            lanes[lane] = self._base + result.completed
            results[index] = result

    def _run(self, item: _Queued, start_abs: float) -> ServedResult:
        """Execute one admitted request on a lane, on its own track."""
        request = item.request
        wait = start_abs - item.arrive_abs
        exclude = self._exclusions(request, start_abs)
        track = self.timeline.open_track(item.arrive_abs)
        try:
            with _span("serving.request", kind=request.kind,
                       priority=request.priority_name) as spn:
                with _span("queue.wait", priority=request.priority_name):
                    if wait:
                        self.timeline.advance(wait)
                spn.annotate(admitted=True, queue_wait=wait)
                if exclude:
                    spn.annotate(excluded=",".join(sorted(exclude)))
                answer = self._execute(request, item.deadline_abs, exclude)
        finally:
            duration = self.timeline.close_track(track)
        completed_abs = item.arrive_abs + duration
        health = answer.health
        health.queue_wait = wait
        # The wait estimator needs lane-occupancy time, NOT client
        # latency: feeding queue wait back in would make estimated
        # waits inflate themselves under load.
        self.queue.observe_service(completed_abs - start_abs)
        used = frozenset(self.source_names) - exclude
        self._intervals.append((start_abs, completed_abs, used))
        self._feed_limiters(health, completed_abs)
        return ServedResult(
            request=request,
            answer=answer,
            arrival=item.arrive_abs - self._base,
            started=start_abs - self._base,
            completed=completed_abs - self._base,
            queue_wait=wait,
            from_cache=bool(getattr(answer, "from_cache", False)),
        )

    def _execute(self, request: Request, deadline_abs: float | None,
                 exclude: frozenset):
        method = getattr(self.mediator, request.kind)
        kwargs = dict(request.params)
        kwargs["deadline_at"] = deadline_abs
        if exclude:
            kwargs["exclude"] = tuple(sorted(exclude))
        return method(**kwargs)

    # -- feedback ---------------------------------------------------------------

    def _exclusions(self, request: Request,
                    start_abs: float) -> frozenset:
        """Which sources sit out this query (AIMD limit / brownout)."""
        names = self.source_names
        exclude: set[str] = set()
        in_flight = {name: 0 for name in names}
        for started, ended, used in self._intervals:
            if started <= start_abs < ended:
                for name in used:
                    if name in in_flight:
                        in_flight[name] += 1
        for name in names:
            limiter = self.limiters.get(name)
            if limiter is not None and in_flight[name] >= limiter.allowed:
                exclude.add(name)
        if (self.brownout is not None and self.brownout.reduced_sources()
                and request.priority == INTERACTIVE):
            slow = self._slowest_source()
            if slow is not None:
                exclude.add(slow)
        if len(exclude) >= len(names):
            # Never bench the whole federation: keep the source with
            # the most limit headroom (ties broken by name).
            def headroom(name: str):
                limiter = self.limiters.get(name)
                allowed = limiter.allowed if limiter else len(names)
                return (in_flight[name] - allowed, name)
            exclude.discard(min(names, key=headroom))
        return frozenset(exclude)

    def _slowest_source(self) -> str | None:
        """The slowest source by observed p95, for brownout level 2."""
        floor = self.policy.brownout_rank_min_observations
        ranked = [
            (hedger.latency.quantile_bound(0.95), name)
            for name, hedger in self.hedgers.items()
            if hedger.latency.count >= floor
        ]
        if not ranked or len(self.source_names) < 2:
            return None
        return max(ranked)[1]

    def _feed_limiters(self, health: QueryHealth,
                       completed_abs: float) -> None:
        for name, outcome in health.outcomes.items():
            limiter = self.limiters.get(name)
            if limiter is None or outcome.status == "skipped":
                continue
            ok = outcome.status in ("ok", "retried")
            limiter.record(ok=ok, latency=outcome.latency,
                           now=completed_abs)


def summarize(results: Sequence[ServedResult], *,
              budget: float | None = None) -> dict:
    """Aggregate serving outcomes into the numbers A11 plots.

    ``budget`` is the per-query deadline used for the goodput
    definition; when None, every non-shed answer counts as good.
    """
    latencies = sorted(result.latency for result in results
                       if not result.shed)
    shed_reasons: dict[str, int] = {}
    for result in results:
        if result.shed:
            reason = result.shed_reason or "unknown"
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    good = sum(1 for result in results if result.in_deadline(budget))
    completed = max((result.completed for result in results), default=0.0)
    return {
        "offered": len(results),
        "served": len(latencies),
        "shed": sum(shed_reasons.values()),
        "shed_rate": (sum(shed_reasons.values()) / len(results)
                      if results else 0.0),
        "shed_by_reason": dict(sorted(shed_reasons.items())),
        "good": good,
        "goodput_ratio": good / len(results) if results else 0.0,
        "p50": _percentile(latencies, 0.50),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
        "max_latency": latencies[-1] if latencies else 0.0,
        "makespan": completed,
    }


def _percentile(ordered: Sequence[float], quantile: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1,
                max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[index]
