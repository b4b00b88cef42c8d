"""Shard-aware serving: scatter-gather in front of per-shard servers.

:class:`ShardedFederationServer` gives each shard its own
:class:`~repro.serving.FederationServer` — its own admission queue,
its own ``capacity`` lanes, its own brownout ladder — which is the
scale-out story in one sentence: **adding a shard adds serving
capacity**, because a point lookup occupies one shard's lane while the
other shards' lanes serve other clients.

One ``serve(requests)`` call routes every request to subrequests
(point lookups to the owning shard only, extent queries to all shards,
batches to the owning subset), replays each shard's subrequest list
through that shard's server on a private clock track
(:func:`~repro.mediator.pool.run_on_tracks`, one lane per shard: the
shared clock advances by the slowest shard), and fuses per-shard
results back into one :class:`~repro.serving.ServedResult` per input
request, in input order.

**Law (sharded ≡ unsharded).**  Shards hold disjoint accession ranges
(:class:`~repro.federation.sharding.ShardSlice`), so fusing in
ascending shard order (:func:`fuse_rows` / :func:`fuse_batches`) gives
the exact answer one unsharded mediator gives — identical, never just
similar, at any shard count.  :func:`merge_health` shard-prefixes
outcome keys (``shard0:GenBank``), so a degraded answer still names
which source on which shard let it down.

:func:`sharded_federation` is the calibrated fixture behind the A12
ablation, the ``python -m repro shard`` CLI demo, and the federation
test-suite: three overlapping faultable sources sliced into ``N``
ranges, one mediator + server per shard, all on one virtual clock.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Sequence

from repro.errors import FederationError
from repro.federation.sharding import ShardMap, ShardSlice
from repro.mediator.mediator import (
    MediatedAnswer,
    MediatedBatch,
    QueryHealth,
)
from repro.mediator.pool import run_on_tracks
from repro.obs.metrics import (
    count as _metric,
    gauge as _gauge,
    get_registry,
)
from repro.obs.trace import span as _span
from repro.serving.server import FederationServer, Request, ServedResult


def merge_health(parts: Sequence[tuple[int, QueryHealth]]) -> QueryHealth:
    """Fuse per-shard health reports into one, shard-prefixing outcomes.

    ``complete`` stays honest: the merged report is complete iff every
    shard's was.  ``elapsed`` and ``queue_wait`` are maxima (the parts
    ran in parallel); shed status is sticky with the lowest shard's
    reason winning, so reports are deterministic.
    """
    merged = QueryHealth()
    for shard, health in parts:
        for name, outcome in health.outcomes.items():
            merged.outcomes[f"shard{shard}:{name}"] = outcome
        merged.deadline_hit = merged.deadline_hit or health.deadline_hit
        merged.elapsed = max(merged.elapsed, health.elapsed)
        merged.queue_wait = max(merged.queue_wait, health.queue_wait)
        if health.shed and not merged.shed:
            merged.shed = True
            merged.shed_reason = health.shed_reason
        if merged.trace_id is None:
            merged.trace_id = health.trace_id
    return merged


def fuse_batches(accessions: Sequence[str],
                 parts: Sequence[tuple[int, MediatedBatch]],
                 health: QueryHealth) -> MediatedBatch:
    """Fuse disjoint per-shard batches, keys in the caller's order."""
    fused = MediatedBatch(
        {accession: [] for accession in accessions}, health=health)
    for __, part in sorted(parts, key=lambda pair: pair[0]):
        for accession, views in part.items():
            fused[accession] = list(views)
    return fused


def fuse_rows(parts: Sequence[tuple[int, MediatedAnswer]],
              health: QueryHealth,
              source_order: Sequence[str] = ()) -> MediatedAnswer:
    """Fuse per-shard extent answers back into the unsharded row order.

    A single mediator emits rows source-major (all of source A, then
    all of source B, …); each shard's partial answer is source-major
    too, over its own contiguous accession range.  Fusing source-major
    first and shard-ascending within each source therefore reproduces
    the exact row order one unsharded mediator would have produced.
    Sources absent from *source_order* fuse after it, in first-seen
    order, so fusion never drops a row.
    """
    ordered = sorted(parts, key=lambda pair: pair[0])
    ranking = {name: rank for rank, name in enumerate(source_order)}
    buckets: dict[str, list] = {name: [] for name in source_order}
    for __, part in ordered:
        for row in part:
            buckets.setdefault(row.source, []).append(row)
    fused = MediatedAnswer(health=health)
    for name in sorted(buckets,
                       key=lambda name: ranking.get(name, len(ranking))):
        fused.extend(buckets[name])
    return fused


class ShardedFederationServer:
    """Deterministic scatter-gather serving over per-shard servers.

    ``servers[i]`` must serve shard *i* and all servers must share one
    virtual clock.  The per-shard servers keep their own admission
    machinery: a subrequest can be shed by its shard (queue full,
    deadline, brownout) and the fused result reports that honestly —
    an extent query is only as good as its slowest / unluckiest shard.
    """

    def __init__(self, shard_map: ShardMap,
                 servers: Sequence[FederationServer]) -> None:
        if len(servers) != shard_map.count:
            raise FederationError(
                f"{shard_map.count} shards need {shard_map.count} "
                f"servers, got {len(servers)}")
        timelines = {id(server.timeline) for server in servers}
        if len(timelines) > 1:
            raise FederationError(
                "per-shard servers must share one virtual clock")
        self.shard_map = shard_map
        self.servers = list(servers)
        self.timeline = self.servers[0].timeline

    @property
    def count(self) -> int:
        return self.shard_map.count

    # -- routing ----------------------------------------------------------------

    def _route(self, request: Request) -> list[tuple[int, dict]]:
        """The (shard, params) subrequests one request fans out to:
        an extent request to every shard (each holds part of it), a
        keyed one to the owners of its accessions, a batch narrowed to
        each owner's share (an empty batch to shard 0)."""
        accessions = request.accessions
        if accessions is None:
            return [(shard, request.params) for shard in range(self.count)]
        groups = self.shard_map.split(accessions)
        if request.shape is not MediatedBatch:
            return [(shard, request.params) for shard in groups]
        return [(shard, dict(request.params, accessions=subset))
                for shard, subset in sorted(groups.items())
                ] or [(0, request.params)]

    # -- the scatter-gather serving loop ----------------------------------------

    def serve(self, requests: Sequence[Request]) -> list[ServedResult]:
        """Serve *requests*; one fused :class:`ServedResult` each, in
        input order.  The shared clock advances once, by the slowest
        shard's virtual makespan."""
        per_shard: list[list[Request]] = [[] for __ in range(self.count)]
        placements: list[list[tuple[int, int]]] = []
        for request in requests:
            entry = []
            for shard, params in self._route(request):
                entry.append((shard, len(per_shard[shard])))
                sub = request if params is request.params else Request(
                    request.kind, params, request.priority,
                    request.arrival, request.deadline, request.label)
                per_shard[shard].append(sub)
            placements.append(entry)

        # One lane per routed shard: the join is the slowest shard's
        # makespan.  A shard no request routed to is not asked.
        routed = [shard for shard in range(self.count) if per_shard[shard]]
        shard_results: list[list[ServedResult]] = [[] for __ in per_shard]
        for shard, results in zip(routed, run_on_tracks(
                self.timeline,
                [partial(self._serve_shard, shard, per_shard[shard])
                 for shard in routed],
                None, self.count)):
            shard_results[shard] = results
        if get_registry() is not None:  # nobody listening: skip the counting
            for shard, results in enumerate(shard_results):
                served = sum(1 for result in results if not result.shed)
                _gauge("federation", f"shard{shard}_served", served)
                _gauge("federation", f"shard{shard}_shed",
                       len(results) - served)
                _metric("federation", "subrequests", len(per_shard[shard]))

        return [self._fuse(request, [(shard, shard_results[shard][index])
                                     for shard, index in entry])
                for request, entry in zip(requests, placements)]

    def _serve_shard(self, shard: int,
                     subrequests: list[Request]) -> list[ServedResult]:
        with _span("shard.fanout", shard=shard, requests=len(subrequests)):
            return self.servers[shard].serve(subrequests)

    def submit(self, request: Request) -> ServedResult:
        return self.serve([request])[0]

    def admit_inline(self, priority: int = 0) -> str | None:
        """Admission verdict for inline work (BiQL statements).

        Inline statements run on the warehouse, not on any one shard —
        but they should still yield when the federation is defending
        itself.  The verdict is the *most pessimistic* shard's: if any
        shard would shed inline work at this priority, the statement is
        refused.  Returns the shed reason, or ``None`` to proceed.
        """
        for server in self.servers:
            reason = server.admit_inline(priority)
            if reason is not None:
                return reason
        return None

    # -- gather -----------------------------------------------------------------

    def _fuse(self, request: Request,
              parts: list[tuple[int, ServedResult]]) -> ServedResult:
        """One client-visible result from the per-shard subresults.

        A single-shard request passes through (re-anchored on the
        original request object); a scatter fuses answers in shard
        order and takes gather-barrier timing — the client waited for
        the slowest shard."""
        if len(parts) == 1:
            __, sub = parts[0]
            return sub if sub.request is request else replace(
                sub, request=request)
        health = merge_health([(shard, sub.answer.health)
                               for shard, sub in parts])
        served = [(shard, sub.answer) for shard, sub in parts
                  if not sub.shed]
        if request.shape is MediatedBatch:
            answer = fuse_batches(request.accessions, served, health)
        else:
            answer = fuse_rows(served, health, self.servers[0].source_names)
        answer.from_cache = all(sub.from_cache for __, sub in parts)
        return ServedResult(
            request=request,
            answer=answer,
            arrival=min(sub.arrival for __, sub in parts),
            started=min(sub.started for __, sub in parts),
            completed=max(sub.completed for __, sub in parts),
            queue_wait=max(sub.queue_wait for __, sub in parts),
        )

    def __repr__(self) -> str:
        return f"ShardedFederationServer({self.count} shards)"


def sharded_federation(
    shards: int = 4,
    *,
    seed: int = 71,
    size: int = 48,
    fail_rate: float = 0.05,
    latency: float = 0.5,
    slow_rate: float = 0.1,
    slow_factor: float = 8.0,
    deadline: float = 25.0,
    capacity: int = 4,
    policy=None,
    lookup_population: int = 16,
):
    """The calibrated N-shard federation behind A12 and ``repro shard``.

    Three overlapping repositories (GenBank, EMBL, AceDB) are sliced
    into *shards* contiguous accession ranges; each shard gets its own
    :class:`~repro.sources.FaultyRepository` proxies (per-shard fault
    seeds), its own mediator, and its own
    :class:`~repro.serving.FederationServer` with ``capacity`` lanes
    and clean-slice hedge replicas — all on one shared virtual clock.

    Returns ``(server, shard_map, accessions, timeline)`` where
    ``server`` is the :class:`ShardedFederationServer` and
    ``accessions`` a lookup population spanning every shard.  Fully
    seeded: identical arguments replay bit for bit.
    """
    from repro.mediator import Mediator, RetryPolicy
    from repro.serving.policy import ServingPolicy
    from repro.sources import (
        AceRepository,
        EmblRepository,
        FaultyRepository,
        GenBankRepository,
        Universe,
        VirtualClock,
    )

    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    repositories = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    union = sorted({accession for repository in repositories
                    for accession in repository.accessions()})
    shard_map = ShardMap.for_accessions(union, shards)
    retry_policy = RetryPolicy(max_attempts=3, base_delay=1.0,
                               multiplier=2.0, jitter=0.0, deadline=40.0)
    servers = []
    for shard in range(shard_map.count):
        proxies = []
        for index, repository in enumerate(repositories, start=1):
            proxy = FaultyRepository(
                ShardSlice(repository, shard_map, shard),
                timeline, seed=100 * shard + index)
            proxy.fail_with_rate(fail_rate)
            proxy.add_latency(latency, slow_rate=slow_rate,
                              slow_factor=slow_factor)
            proxies.append(proxy)
        mediator = Mediator(proxies, retry_policy=retry_policy,
                            timeline=timeline)
        shard_policy = (policy if policy is not None
                        else ServingPolicy(capacity=capacity,
                                           deadline=deadline))
        servers.append(FederationServer(
            mediator, shard_policy,
            replicas={proxy.name: proxy.inner for proxy in proxies},
        ))
    server = ShardedFederationServer(shard_map, servers)
    step = max(1, len(union) // lookup_population)
    accessions = union[::step][:lookup_population]
    return server, shard_map, accessions, timeline
