"""The macro simulator: one simulated day through the whole stack.

:func:`run_macro` is the end-to-end regression gate ROADMAP item 5
asks for.  It stands up the *full* production shape — per-shard
cached mediators over faultable shard slices, a scatter-gather
:class:`~repro.federation.ShardedFederationServer`, a WAL-attached
warehouse with a catch-up read replica, and BiQL sessions admission-
gated by the serving tier — then drives one
:func:`~repro.workload.generator.day_in_the_life` through it, epoch by
epoch:

====== =====================================================
step   what happens inside one epoch
====== =====================================================
1      scheduled source outages open (``repro.sources.faults``)
2      the epoch's Poisson traffic replays through the
       sharded serving tier (admission, AIMD, hedging,
       brownout, per-shard answer caches)
3      the epoch's BiQL statements run through sessions the
       federation may refuse (``admit_inline``)
4      ETL churn: one base source mutates, the warehouse
       refreshes incrementally (monitor deltas → WAL appends)
5      every shard's cache syncs its monitors (precise
       invalidations; outages leave sources *suspect* and the
       staleness bound grows honestly)
6      every ``ship_every`` epochs the replica catches up on
       the warehouse WAL; scheduled :class:`PartitionSpec`
       windows cut the replication channel (rounds are dropped
       loudly and the lag bound grows); lag is sampled each
       epoch
====== =====================================================

When the day schedules partitions, it ends with a failover drill:
the warehouse dock is re-stamped under a bumped epoch and a straggler
shipment claiming the deposed epoch must be fenced by the replica —
so ``BENCH_macro.json`` carries real fence/failover counters.

Everything runs on one shared :class:`~repro.sources.VirtualClock`
and every random draw is seeded, so a :class:`MacroReport` — goodput,
latency percentiles, cache hit rate, staleness and replica-lag bounds,
shed taxonomy, replica convergence — is **bit-reproducible**: two runs
with the same spec and seed produce identical numbers.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

from repro.adapter import install_genomics
from repro.db import Database
from repro.db.recovery import databases_equal
from repro.db.values import NULL
from repro.errors import FederationError, OverloadError, ReproError
from repro.federation.channel import FaultyChannel
from repro.federation.replication import FollowerNode, disk_shipments
from repro.federation.serving import ShardedFederationServer
from repro.federation.sharding import ShardMap, ShardSlice
from repro.lang.biql import BiqlSession
from repro.mediator import CachedMediator, RetryPolicy
from repro.obs.metrics import (
    MetricsRegistry,
    gauge as _gauge,
    get_registry as _get_registry,
    set_registry as _set_registry,
)
from repro.obs.trace import span as _span
from repro.serving.policy import (
    BATCH,
    INTERACTIVE,
    MAINTENANCE,
    PRIORITY_NAMES,
    ServingPolicy,
)
from repro.serving.server import FederationServer, summarize
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase
from repro.workload.generator import (
    DEFAULT_DAY,
    DiurnalPhase,
    MacroWorkload,
    day_in_the_life,
)


@dataclass(frozen=True)
class OutageSpec:
    """One scheduled source outage, anchored to an epoch's start.

    At the start of epoch ``epoch``, source ``source`` of shard
    ``shard`` goes dark from ``delay`` after the epoch opens for
    ``duration`` virtual seconds.  Durations longer than an epoch are
    deliberate: they guarantee the cache's monitor sweep lands inside
    the outage, so the staleness bound visibly grows and recovers.
    """

    epoch: int
    shard: int
    source: int
    delay: float = 0.0
    duration: float = 40.0


@dataclass(frozen=True)
class PartitionSpec:
    """One scheduled replication partition, anchored to an epoch's start.

    At the start of epoch ``epoch``, the replica's replication channel
    goes dark from ``delay`` after the epoch opens for ``duration``
    virtual seconds.  Catch-up rounds inside the window are dropped
    with a structured :class:`~repro.errors.ChannelError` (counted as
    ``partition_drops``), so the replica's lag bound grows honestly
    and recovers on heal.  Scheduling at least one partition also arms
    the end-of-day failover drill: the warehouse dock is re-stamped
    under a bumped epoch, the replica adopts it on catch-up, and one
    straggler shipment still claiming the deposed epoch must be fenced
    — never applied — which the report counts as ``shipments_fenced``.
    """

    epoch: int
    delay: float = 0.0
    duration: float = 40.0


@dataclass(frozen=True)
class MacroSpec:
    """Everything that shapes one macro run (fully seeded)."""

    name: str = "full"
    seed: int = 0
    shards: int = 3
    size: int = 36
    users: int = 1200
    phases: tuple = DEFAULT_DAY
    epoch_length: float = 30.0
    #: Per-shard serving lanes; aggregate capacity = shards × this.
    capacity: int = 4
    mean_service: float = 3.0
    deadline: float = 25.0
    fail_rate: float = 0.04
    latency: float = 0.5
    slow_rate: float = 0.1
    slow_factor: float = 8.0
    cache_entries: int = 512
    zipf_exponent: float = 1.1
    #: Source mutations per epoch (the ETL churn).
    etl_steps: int = 3
    #: Epochs between replica catch-up rounds.
    ship_every: int = 2
    biql_per_epoch: int = 2
    apply_cost: float = 0.02
    outages: tuple = ()
    partitions: tuple = ()

    @property
    def aggregate_capacity(self) -> int:
        return self.shards * self.capacity

    @property
    def total_epochs(self) -> int:
        return sum(phase.epochs for phase in self.phases)

    @classmethod
    def full(cls, seed: int = 0) -> "MacroSpec":
        """The headline day BENCH_macro.json reports."""
        return cls(
            name="full", seed=seed,
            outages=(
                # A morning wobble on shard 0's GenBank…
                OutageSpec(epoch=3, shard=0, source=0, delay=2.0,
                           duration=45.0),
                # …and a peak-hour double outage: shard 1 loses EMBL
                # while shard 2 loses AceDB, both spanning past the
                # epoch's cache sync.
                OutageSpec(epoch=6, shard=1, source=1, delay=1.0,
                           duration=50.0),
                OutageSpec(epoch=7, shard=2, source=2, delay=0.0,
                           duration=45.0),
            ),
            partitions=(
                # Mid-afternoon the replica link is cut for ninety
                # virtual seconds — long enough to swallow the epoch-5
                # catch-up round, short enough to heal well before the
                # end-of-day convergence check.
                PartitionSpec(epoch=5, delay=2.0, duration=90.0),
            ),
        )

    @classmethod
    def quick(cls, seed: int = 0) -> "MacroSpec":
        """The scaled-down day CI gates on (seconds, not minutes)."""
        return cls(
            name="quick", seed=seed, shards=2, size=24, users=200,
            phases=(DiurnalPhase("night", 1, 0.5),
                    DiurnalPhase("peak", 2, 3.0),
                    DiurnalPhase("evening", 1, 1.0)),
            epoch_length=15.0, capacity=3, cache_entries=256,
            etl_steps=2, ship_every=2, biql_per_epoch=1,
            outages=(OutageSpec(epoch=1, shard=0, source=0, delay=1.0,
                                duration=24.0),),
            partitions=(PartitionSpec(epoch=1, delay=1.0,
                                      duration=60.0),),
        )


@dataclass
class MacroFederation:
    """The full stack one macro run drives."""

    spec: MacroSpec
    timeline: VirtualClock
    repositories: list
    shard_map: ShardMap
    #: ``proxies[shard][index]`` — the faultable per-shard sources.
    proxies: list
    mediators: list
    server: ShardedFederationServer
    warehouse: UnifyingDatabase
    dock: "_WarehouseDock"
    follower: FollowerNode
    replica_channel: FaultyChannel
    accessions: list


class _WarehouseDock:
    """Duck-typed shipping dock: lets a :class:`FollowerNode` catch up
    on the *warehouse's* WAL as if the warehouse were a shard primary
    (``catch_up`` only needs ``.name`` and ``.ship(request)``).  When
    *epoch* is set the dock stamps its leadership claim on every
    shipment, so a partition-scheduled day exercises the fence end to
    end."""

    def __init__(self, name: str, wal, *, epoch: "int | None" = None) -> None:
        self.name = name
        self.wal = wal
        self.epoch = epoch

    def ship(self, request=None):
        self.wal.flush()
        return disk_shipments(self.wal.path, request, epoch=self.epoch)


def build_macro_federation(spec: MacroSpec,
                           workdir: str) -> MacroFederation:
    """Stand up the day-in-the-life stack for *spec*.

    Three base repositories feed two consumers at once: sliced and
    fault-wrapped, they are the serving tier's per-shard sources;
    clean, they are the warehouse's ETL feed.  Epoch churn mutates the
    *base* repositories, so the same delta stream reaches the shard
    caches (as invalidations) and the warehouse (as refresh work) —
    exactly the coupling a macro test exists to exercise.
    """
    universe = Universe(seed=spec.seed, size=spec.size)
    timeline = VirtualClock()
    repositories = [
        GenBankRepository(universe),
        EmblRepository(universe),
        AceRepository(universe),
    ]
    union = sorted({accession for repository in repositories
                    for accession in repository.accessions()})
    shard_map = ShardMap.for_accessions(union, spec.shards)
    retry_policy = RetryPolicy(max_attempts=3, base_delay=1.0,
                               multiplier=2.0, jitter=0.0, deadline=40.0)
    proxies: list[list[FaultyRepository]] = []
    mediators: list[CachedMediator] = []
    servers: list[FederationServer] = []
    for shard in range(shard_map.count):
        shard_proxies = []
        for index, repository in enumerate(repositories, start=1):
            proxy = FaultyRepository(
                ShardSlice(repository, shard_map, shard),
                timeline, seed=1000 * spec.seed + 100 * shard + index)
            shard_proxies.append(proxy)
        proxies.append(shard_proxies)
        mediator = CachedMediator(shard_proxies,
                                  max_entries=spec.cache_entries,
                                  retry_policy=retry_policy,
                                  timeline=timeline)
        mediators.append(mediator)
        # Faults start *after* the cache's monitors take their clean
        # initial snapshots — the chaos begins at serve time.
        for proxy in shard_proxies:
            proxy.fail_with_rate(spec.fail_rate)
            proxy.add_latency(spec.latency, slow_rate=spec.slow_rate,
                              slow_factor=spec.slow_factor)
        servers.append(FederationServer(
            mediator,
            ServingPolicy(capacity=spec.capacity, deadline=spec.deadline),
            replicas={proxy.name: proxy.inner for proxy in shard_proxies},
        ))
    server = ShardedFederationServer(shard_map, servers)

    # The warehouse sees the clean base repositories; its WAL attaches
    # *before* the initial load so the replica can converge on replay.
    warehouse = UnifyingDatabase(repositories)
    wal = warehouse.attach_wal(os.path.join(workdir, "warehouse.jsonl"))
    warehouse.initial_load()
    shell = UnifyingDatabase([])   # schema-only twin for the replica
    replica_channel = FaultyChannel(timeline, name="replica-net",
                                    seed=spec.seed)
    follower = FollowerNode("replica", os.path.join(workdir, "replica"),
                            shell.db, timeline=timeline,
                            apply_cost=spec.apply_cost,
                            channel=replica_channel)
    # A partition-scheduled day runs the fence for real: the dock
    # claims epoch 1 from the first shipment so the end-of-day
    # failover drill has a deposed epoch to straggle under.
    dock = _WarehouseDock("warehouse", wal,
                          epoch=1 if spec.partitions else None)
    return MacroFederation(
        spec=spec, timeline=timeline, repositories=repositories,
        shard_map=shard_map, proxies=proxies, mediators=mediators,
        server=server, warehouse=warehouse, dock=dock,
        follower=follower, replica_channel=replica_channel,
        accessions=union,
    )


@dataclass
class MacroReport:
    """What one simulated day measured, reproducibly."""

    spec: MacroSpec
    workload_requests: int
    workload_biql: int
    active_tenants: int
    overall: dict
    phases: dict
    priorities: dict
    cache: dict
    staleness: dict
    replica: dict
    biql: dict
    columnar: dict
    makespan: float

    def to_payload(self) -> dict:
        """The JSON-stable dict BENCH_macro.json serializes.

        Only virtual-time and counter values appear — nothing read
        from the wall clock — so two runs with one seed serialize to
        identical bytes.
        """
        spec = self.spec
        return {
            "spec": {
                "name": spec.name,
                "seed": spec.seed,
                "shards": spec.shards,
                "size": spec.size,
                "users": spec.users,
                "epochs": spec.total_epochs,
                "epoch_length": spec.epoch_length,
                "capacity_per_shard": spec.capacity,
                "deadline": spec.deadline,
                "outages": len(spec.outages),
                "partitions": len(spec.partitions),
            },
            "workload": {
                "requests": self.workload_requests,
                "biql_statements": self.workload_biql,
                "active_tenants": self.active_tenants,
            },
            "headline": {
                "goodput_ratio": _round(self.overall["goodput_ratio"]),
                "p50_latency": _round(self.overall["p50"]),
                "p99_latency": _round(self.overall["p99"]),
                "shed_rate": _round(self.overall["shed_rate"]),
                "cache_hit_rate": _round(self.cache["hit_rate"]),
                "staleness_max": _round(self.staleness["max"]),
                "replica_lag_max": _round(self.replica["lag_max"]),
                "replica_converged": self.replica["converged"],
            },
            "overall": _round_dict(self.overall),
            "phases": {name: _round_dict(stats)
                       for name, stats in sorted(self.phases.items())},
            "priorities": {name: _round_dict(stats)
                           for name, stats in
                           sorted(self.priorities.items())},
            "cache": _round_dict(self.cache),
            "staleness": _round_dict(self.staleness),
            "replica": _round_dict(self.replica),
            "biql": dict(self.biql),
            "columnar": dict(self.columnar),
            "virtual_makespan": _round(self.makespan),
        }


def _round(value):
    return round(value, 6) if isinstance(value, float) else value


def _round_dict(mapping: dict) -> dict:
    return {key: (_round_dict(value) if isinstance(value, dict)
                  else _round(value))
            for key, value in mapping.items()}


#: The analytics pass runs deliberately memory-starved: the budget is a
#: fraction of the day's ``public_genes`` payload, so the external sort
#: spills and the page cache evicts — the out-of-core machinery is part
#: of the macro surface, not an idle code path.
ANALYTICS_BUDGET = 1024
ANALYTICS_PAGE_ROWS = 8


def columnar_analytics(database, *, memory_budget: int = ANALYTICS_BUDGET,
                       page_rows: int = ANALYTICS_PAGE_ROWS) -> dict:
    """End-of-day analytics over ``public_genes``, out-of-core.

    Replays the warehouse's gene table into a columnar database under
    a small ``memory_budget`` (rows clustered by length so zone maps
    bite), then runs the analytic battery: a selective range scan
    (zone-map page skipping), a vectorized aggregate, a genomic motif
    filter (the ``contains`` kernel) and a full ORDER BY (external
    merge sort).  Page and spill counters publish to whatever metrics
    registry is enabled; the returned dict holds the workload's shape.
    Deterministic for a seeded day — no wall clock, no unseeded draws.
    """
    rows = database.query(
        "SELECT accession, organism, sequence, length, gc "
        "FROM public_genes ORDER BY length, accession").rows
    analytics = Database(layout="column", memory_budget=memory_budget,
                         page_rows=page_rows)
    install_genomics(analytics)
    analytics.execute(
        "CREATE TABLE genes (accession TEXT, organism TEXT, "
        "sequence DNA, length INTEGER, gc REAL)")
    for row in rows:
        analytics.execute("INSERT INTO genes VALUES (?, ?, ?, ?, ?)",
                          row)
    lengths = sorted(row[3] for row in rows if row[3] is not NULL)
    if lengths:
        low = lengths[len(lengths) // 2]
        high = lengths[min(len(lengths) // 2 + max(1, len(lengths) // 10),
                           len(lengths) - 1)]
    else:
        low = high = 0
    range_matches = len(analytics.query(
        "SELECT accession FROM genes WHERE length BETWEEN ? AND ?",
        (low, high)).rows)
    aggregate = analytics.query(
        "SELECT count(*), avg(gc), min(length), max(length) "
        "FROM genes").first()
    motif_matches = analytics.query(
        "SELECT count(*) FROM genes WHERE sequence IS NOT NULL "
        "AND contains(sequence, 'ACGTA')").scalar()
    sorted_rows = len(analytics.query(
        "SELECT accession, gc FROM genes "
        "ORDER BY gc DESC, accession").rows)
    analytics.columnar.close()
    assert sorted_rows == len(rows) and aggregate[0] == len(rows)
    return {
        "rows": len(rows),
        "memory_budget": memory_budget,
        "page_rows": page_rows,
        "range_matches": range_matches,
        "motif_matches": motif_matches,
        "sorted_rows": sorted_rows,
    }


def _columnar_section(federation: MacroFederation) -> dict:
    """Run the analytics pass under a private registry and fold its
    page/spill counters into the report section."""
    previous = _get_registry()
    registry = MetricsRegistry()
    _set_registry(registry)
    try:
        section = columnar_analytics(federation.warehouse.db)
    finally:
        _set_registry(previous)
    snapshot = registry.snapshot()
    for label, key in (
        ("pages_read", "columnar_pages_read"),
        ("pages_skipped", "columnar_pages_skipped"),
        ("pages_evicted", "columnar_pages_evicted"),
        ("page_faults", "columnar_page_faults"),
        ("spill_runs", "executor_spill_runs"),
        ("spill_rows", "executor_spill_rows"),
        ("spill_bytes", "executor_spill_bytes"),
    ):
        section[label] = int(snapshot.get(key, 0.0))
    return section


def run_macro(spec: MacroSpec, *,
              workdir: str | None = None) -> MacroReport:
    """Simulate one day through the full stack; returns the report.

    *workdir* holds the warehouse WAL and the replica's segment files;
    a temporary directory is created (and left for the OS) when not
    given — no path ever reaches the report, so the choice cannot
    perturb reproducibility.
    """
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-macro-")
    with _span("macro.run", mode=spec.name, seed=spec.seed):
        federation = build_macro_federation(spec, workdir)
        workload = day_in_the_life(
            federation.accessions,
            users=spec.users,
            phases=spec.phases,
            epoch_length=spec.epoch_length,
            capacity=spec.aggregate_capacity,
            mean_service=spec.mean_service,
            seed=spec.seed,
            zipf_exponent=spec.zipf_exponent,
            biql_per_epoch=spec.biql_per_epoch,
        )
        return _drive(spec, federation, workload)


def _drive(spec: MacroSpec, federation: MacroFederation,
           workload: MacroWorkload) -> MacroReport:
    timeline = federation.timeline
    started = timeline.now()
    outages: dict[int, list[OutageSpec]] = {}
    for outage in spec.outages:
        outages.setdefault(outage.epoch, []).append(outage)
    partitions: dict[int, list[PartitionSpec]] = {}
    for window in spec.partitions:
        partitions.setdefault(window.epoch, []).append(window)
    sessions = {
        priority: BiqlSession(federation.warehouse,
                              server=federation.server,
                              priority=priority)
        for priority in (INTERACTIVE, BATCH, MAINTENANCE)
    }
    results = []
    phase_results: dict[str, list] = {}
    staleness_samples: list[float] = []
    lag_samples: list[float] = []
    biql_run = biql_refused = 0
    for epoch in workload.epochs:
        with _span("macro.epoch", index=epoch.index, phase=epoch.phase):
            now = timeline.now()
            for outage in outages.get(epoch.index, ()):
                proxy = federation.proxies[outage.shard][outage.source]
                proxy.schedule_outage(now + outage.delay,
                                      now + outage.delay + outage.duration)
            for window in partitions.get(epoch.index, ()):
                federation.replica_channel.partition(
                    now + window.delay,
                    now + window.delay + window.duration)
            served = federation.server.serve(epoch.requests)
            results.extend(served)
            phase_results.setdefault(epoch.phase, []).extend(served)
            for text, priority in epoch.biql:
                try:
                    sessions[priority].run(text)
                    biql_run += 1
                except OverloadError:
                    biql_refused += 1
            # ETL churn: one base source mutates, the warehouse follows.
            target = federation.repositories[
                epoch.index % len(federation.repositories)]
            target.advance(spec.etl_steps)
            federation.warehouse.refresh()
            # Cache sync: monitor sweeps turn the same churn into
            # precise invalidations; outage-covered sweeps fail and
            # the staleness bound grows until a clean one.
            stale = 0.0
            for mediator in federation.mediators:
                mediator.sync()
                stale = max(stale, mediator.staleness_bound())
            staleness_samples.append(stale)
            _gauge("macro", "staleness_bound", stale)
            lag = federation.follower.staleness_bound()
            lag_samples.append(lag)
            _gauge("macro", "replica_lag", lag)
            if (epoch.index + 1) % spec.ship_every == 0:
                federation.follower.catch_up(federation.dock)
    failover_drills = 0
    if spec.partitions:
        # End-of-day failover drill: the warehouse side is "promoted"
        # under a bumped epoch; the replica adopts the new claim on
        # its final catch-up, then one straggler shipment still
        # stamped with the deposed epoch must be fenced, never
        # applied — the same end state the chaos split-brain scenario
        # proves, measured inside the macro day.
        deposed = federation.dock.epoch
        federation.dock.epoch = deposed + 1
        failover_drills = 1
    federation.follower.catch_up(federation.dock)
    if failover_drills:
        federation.dock.wal.flush()
        straggler = disk_shipments(federation.dock.wal.path,
                                   epoch=deposed)[0]
        try:
            federation.follower.apply_shipment(straggler)
        except FederationError:
            pass
    converged = databases_equal(federation.warehouse.db,
                                federation.follower.database)
    with _span("macro.columnar_analytics"):
        columnar = _columnar_section(federation)
    return _report(spec, federation, workload, results, phase_results,
                   staleness_samples, lag_samples,
                   biql_run, biql_refused, converged, columnar,
                   failover_drills=failover_drills,
                   makespan=timeline.now() - started)


def _report(spec: MacroSpec, federation: MacroFederation,
            workload: MacroWorkload, results, phase_results,
            staleness_samples, lag_samples, biql_run, biql_refused,
            converged, columnar, *, failover_drills,
            makespan) -> MacroReport:
    overall = summarize(results, budget=spec.deadline)
    phases = {name: summarize(batch, budget=spec.deadline)
              for name, batch in phase_results.items()}
    priorities = {}
    for priority, name in sorted(PRIORITY_NAMES.items()):
        batch = [result for result in results
                 if result.request.priority == priority]
        if batch:
            priorities[name] = summarize(batch, budget=spec.deadline)
    hits = sum(mediator.cost.cache_hits
               for mediator in federation.mediators)
    misses = sum(mediator.cost.cache_misses
                 for mediator in federation.mediators)
    invalidations = sum(mediator.cost.cache_invalidations
                        for mediator in federation.mediators)
    lookups = hits + misses
    cache = {
        "hits": hits,
        "misses": misses,
        "invalidations": invalidations,
        "hit_rate": hits / lookups if lookups else 0.0,
    }
    staleness = {
        "max": max(staleness_samples, default=0.0),
        "final": staleness_samples[-1] if staleness_samples else 0.0,
    }
    replica = {
        "lag_max": max(lag_samples, default=0.0),
        "lag_final": federation.follower.staleness_bound(),
        "applied_statements": federation.follower.statements_applied,
        "rejected_shipments": federation.follower.rejected_shipments,
        "shipments_fenced": federation.follower.shipments_fenced,
        "partition_drops": federation.replica_channel.stats.partitioned,
        "failover_drills": failover_drills,
        "epoch": federation.follower.epoch,
        "converged": converged,
    }
    if not converged:   # pragma: no cover - a converged day is the norm
        raise ReproError(
            "macro replica failed to converge with the warehouse")
    _gauge("macro", "goodput_ratio", overall["goodput_ratio"])
    _gauge("macro", "shed_rate", overall["shed_rate"])
    _gauge("macro", "cache_hit_rate", cache["hit_rate"])
    return MacroReport(
        spec=spec,
        workload_requests=workload.total_requests,
        workload_biql=workload.total_biql,
        active_tenants=workload.active_tenants(),
        overall=overall,
        phases=phases,
        priorities=priorities,
        cache=cache,
        staleness=staleness,
        replica=replica,
        biql={"run": biql_run, "refused": biql_refused},
        columnar=columnar,
        makespan=makespan,
    )
