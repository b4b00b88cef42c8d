"""The macro simulator: one simulated day through the whole stack.

:func:`build_macro_federation` stands up the production shape as a
:class:`~repro.sim.sources.World`: per-shard cached mediators over
faultable shard slices behind a scatter-gather server, and a
WAL-attached warehouse with a follower.  :func:`run_macro`, the
end-to-end regression gate, drives one
:func:`~repro.workload.generator.day_in_the_life` through it as a
schedule of the source driver, which holds every standing invariant
after each step.  Each epoch runs its
:attr:`MacroSpec.faults`, ``("serve", requests)``, its ``("biql", text,
priority)`` statements, ``("churn", source, etl_steps)``,
``("refresh",)``, ``("sync",)`` and, every ``ship_every`` epochs,
``("ship",)``; the day ends with a last ``("ship",)``, or the fence
``("drill",)`` when it has a partition.  A broken invariant fails the
day, and so does a step error other than a refused BiQL statement.
All on one virtual clock, every draw seeded: two runs of one spec
return identical payloads.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.adapter import install_genomics
from repro.db import Database
from repro.db.values import NULL
from repro.errors import OverloadError, ReproError
from repro.federation.channel import FaultyChannel
from repro.federation.replication import FollowerNode, disk_shipments
from repro.federation.serving import ShardedFederationServer
from repro.federation.sharding import ShardMap, ShardSlice
from repro.mediator import CachedMediator, RetryPolicy
from repro.obs.metrics import (
    MetricsRegistry,
    gauge as _gauge,
    get_registry as _get_registry,
    set_registry as _set_registry,
)
from repro.obs.trace import span as _span
from repro.serving.policy import PRIORITY_NAMES, ServingPolicy
from repro.serving.server import FederationServer, summarize
from repro.sim.sources import World, drive
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase
from repro.workload.generator import DEFAULT_DAY, DiurnalPhase, day_in_the_life


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
    #: ``(epoch, step)`` pairs, each step run as the epoch opens: an
    #: ``("outage", "shard{k}:{source}", dt, delay)``, or a
    #: ``("partition", dt, delay)`` of the follower's channel, which also
    #: arms the end-of-day fence drill.
    faults: tuple = ()

    @property
    def total_epochs(self) -> int:
        return sum(phase.epochs for phase in self.phases)

    def scheduled(self, action: str) -> int:
        """How many of :attr:`faults` are *action* steps."""
        return sum(step[0] == action for __, step in self.faults)

    @classmethod
    def full(cls, seed: int = 0) -> "MacroSpec":
        """The headline day BENCH_macro.json reports."""
        return cls(
            name="full", seed=seed,
            faults=(
                # A morning wobble on shard 0's GenBank…
                (3, ("outage", "shard0:GenBank", 45.0, 2.0)),
                # …and a peak-hour double outage: shard 1 loses EMBL
                # while shard 2 loses AceDB, both spanning past the
                # epoch's cache sync.
                (6, ("outage", "shard1:EMBL", 50.0, 1.0)),
                (7, ("outage", "shard2:AceDB", 45.0)),
                # Mid-afternoon the replica link is cut for ninety
                # virtual seconds — long enough to swallow the epoch-5
                # catch-up round, short enough to heal well before the
                # end-of-day convergence check.
                (5, ("partition", 90.0, 2.0)),
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
            faults=((1, ("outage", "shard0:GenBank", 24.0, 1.0)),
                    (1, ("partition", 60.0, 1.0))),
        )


@dataclass
class _WarehouseDock:
    """Lets a :class:`FollowerNode` catch up on the warehouse's *wal* as
    on a primary's; a set *epoch* is the leadership claim each shipment
    carries, so a partition-scheduled day exercises the fence."""

    name: str
    wal: object
    epoch: "int | None" = None

    def ship(self, request=None):
        self.wal.flush()
        return disk_shipments(self.wal.path, request, epoch=self.epoch)


def build_macro_federation(spec: MacroSpec, workdir: str) -> World:
    """Stand up the day-in-the-life world for *spec*.

    Three base repositories feed two consumers at once: sliced and
    fault-wrapped, they are the serving tier's per-shard sources;
    clean, they are the warehouse's ETL feed.  Churn mutates the *base*
    repositories, so the same delta stream reaches the shard caches (as
    invalidations) and the warehouse (as refresh work) — exactly the
    coupling a macro test exists to exercise.
    """
    universe = Universe(seed=spec.seed, size=spec.size)
    clock = VirtualClock()
    repositories = [GenBankRepository(universe), EmblRepository(universe),
                    AceRepository(universe)]
    shard_map = ShardMap.for_accessions(sorted(
        {accession for repository in repositories
         for accession in repository.accessions()}), spec.shards)
    retry_policy = RetryPolicy(max_attempts=3, base_delay=1.0,
                               multiplier=2.0, jitter=0.0, deadline=40.0)
    proxies: dict[str, FaultyRepository] = {}
    mediators: list[CachedMediator] = []
    servers: list[FederationServer] = []
    for shard in range(shard_map.count):
        shard_proxies = [
            FaultyRepository(ShardSlice(repository, shard_map, shard), clock,
                             seed=1000 * spec.seed + 100 * shard + index)
            for index, repository in enumerate(repositories, start=1)]
        mediator = CachedMediator(shard_proxies, timeline=clock,
                                  max_entries=spec.cache_entries,
                                  retry_policy=retry_policy)
        mediators.append(mediator)
        # Faults start *after* the cache's monitors take their clean
        # initial snapshots — the chaos begins at serve time.
        for proxy in shard_proxies:
            proxy.fail_with_rate(spec.fail_rate)
            proxy.add_latency(spec.latency, slow_rate=spec.slow_rate,
                              slow_factor=spec.slow_factor)
            proxies[f"shard{shard}:{proxy.name}"] = proxy
        servers.append(FederationServer(
            mediator,
            ServingPolicy(capacity=spec.capacity, deadline=spec.deadline),
            replicas={proxy.name: proxy.inner for proxy in shard_proxies},
        ))
    server = ShardedFederationServer(shard_map, servers)

    # The warehouse sees the clean base repositories; its WAL attaches
    # *before* the initial load so the follower can converge on replay.
    warehouse = UnifyingDatabase(repositories)
    wal = warehouse.attach_wal(os.path.join(workdir, "warehouse.jsonl"))
    warehouse.initial_load()
    shell = UnifyingDatabase([])   # schema-only twin for the follower
    follower = FollowerNode(
        "replica", os.path.join(workdir, "replica"), shell.db,
        timeline=clock, apply_cost=spec.apply_cost,
        channel=FaultyChannel(clock, name="replica-net", seed=spec.seed))
    # A partition-scheduled day runs the fence for real: the dock
    # claims epoch 1 from the first shipment so the end-of-day drill
    # has a deposed epoch to straggle under.
    dock = _WarehouseDock("warehouse", wal,
                          1 if spec.scheduled("partition") else None)
    return World(clock, repositories, proxies, mediators, server, warehouse,
                 follower, dock)


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


def _columnar_section(database) -> dict:
    """Run the analytics pass under a private registry and fold its
    page/spill counters into the payload section."""
    previous = _get_registry()
    registry = MetricsRegistry()
    _set_registry(registry)
    try:
        section = columnar_analytics(database)
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


def run_macro(spec: MacroSpec, *, workdir: str | None = None) -> dict:
    """Simulate one day through the full stack; returns the JSON-stable
    payload BENCH_macro.json serializes.

    *workdir* holds the warehouse WAL and the follower's segment files;
    when it is not given, a temporary directory holds them for the run
    — no path ever reaches the payload, so the choice cannot perturb
    reproducibility.
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-macro-") as workdir:
            return run_macro(spec, workdir=workdir)
    with _span("macro.run", mode=spec.name, seed=spec.seed):
        world = build_macro_federation(spec, workdir)
        workload = day_in_the_life(
            sorted(set().union(*(repository.accessions()
                                 for repository in world.repositories))),
            users=spec.users, phases=spec.phases,
            epoch_length=spec.epoch_length,
            capacity=spec.shards * spec.capacity,
            mean_service=spec.mean_service, seed=spec.seed,
            zipf_exponent=spec.zipf_exponent,
            biql_per_epoch=spec.biql_per_epoch)
        names = [repository.name for repository in world.repositories]
        schedule = []
        for epoch in workload.epochs:
            schedule += [step for at, step in spec.faults
                         if at == epoch.index]
            schedule.append(("serve", epoch.requests))
            schedule += [("biql", text, priority)
                         for text, priority in epoch.biql]
            schedule += [("churn", names[epoch.index % len(names)],
                          spec.etl_steps), ("refresh",), ("sync",)]
            if (epoch.index + 1) % spec.ship_every == 0:
                schedule.append(("ship",))
        schedule.append(("drill",) if spec.scheduled("partition")
                        else ("ship",))
        started = world.clock.now()
        run = drive(world, schedule)
        makespan = world.clock.now() - started
        failures = run.violations + [
            f"step {index} {step[0]}: {outcome!r}"
            for index, (step, outcome) in enumerate(run.steps)
            if outcome != "ok" and not (
                step[0] == "biql" and isinstance(outcome, OverloadError))]
        if not run.shown("converged"):
            failures.append("the follower differs from the warehouse")
        if failures:
            raise ReproError(f"the {spec.name} day (seed {spec.seed}) "
                             f"failed {len(failures)} checks: "
                             + "; ".join(failures[:3]))
        with _span("macro.columnar_analytics"):
            columnar = _columnar_section(world.warehouse.db)
        return _payload(spec, workload, run, columnar, makespan)


def _payload(spec: MacroSpec, workload, run, columnar: dict,
             makespan: float) -> dict:
    """The payload of a day's *run*: only virtual-time and counter
    values — nothing read from the wall clock — so two runs with one
    seed serialize to identical bytes."""
    world, follower = run.world, run.world.follower
    shown = {action: [facts for (step, __), facts in zip(run.steps,
                                                         run.facts)
                      if step[0] == action]
             for action in ("serve", "sync")}
    results, phases = [], {}
    for epoch, facts in zip(workload.epochs, shown["serve"]):
        results += facts["served"]
        phases.setdefault(epoch.phase, []).extend(facts["served"])
    overall = summarize(results, budget=spec.deadline)
    priorities = {}
    for priority, name in sorted(PRIORITY_NAMES.items()):
        batch = [result for result in results
                 if result.request.priority == priority]
        if batch:
            priorities[name] = summarize(batch, budget=spec.deadline)
    hits, misses, invalidations = (
        sum(getattr(mediator.cost, counter) for mediator in world.mediators)
        for counter in ("cache_hits", "cache_misses", "cache_invalidations"))
    cache = {
        "hits": hits,
        "misses": misses,
        "invalidations": invalidations,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
    stale = [facts["staleness"] for facts in shown["sync"]]
    lags = [facts["lag"] for facts in shown["sync"]]
    staleness = {"max": max(stale), "final": stale[-1]}
    biql = [outcome for step, outcome in run.steps if step[0] == "biql"]
    replica = {
        "lag_max": max(lags),
        "lag_final": follower.staleness_bound(),
        "applied_statements": follower.statements_applied,
        "rejected_shipments": follower.rejected_shipments,
        "shipments_fenced": follower.shipments_fenced,
        "partition_drops": follower.channel.stats.partitioned,
        "failover_drills": sum(step[0] == "drill" for step, __ in run.steps),
        "epoch": follower.epoch,
        "converged": run.shown("converged"),
    }
    _gauge("macro", "staleness_bound", stale[-1])
    _gauge("macro", "replica_lag", lags[-1])
    _gauge("macro", "goodput_ratio", overall["goodput_ratio"])
    _gauge("macro", "shed_rate", overall["shed_rate"])
    _gauge("macro", "cache_hit_rate", cache["hit_rate"])
    return _rounded({
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
            "outages": spec.scheduled("outage"),
            "partitions": spec.scheduled("partition"),
        },
        "workload": {
            "requests": workload.total_requests,
            "biql_statements": workload.total_biql,
            "active_tenants": workload.active_tenants(),
        },
        "headline": {
            "goodput_ratio": overall["goodput_ratio"],
            "p50_latency": overall["p50"],
            "p99_latency": overall["p99"],
            "shed_rate": overall["shed_rate"],
            "cache_hit_rate": cache["hit_rate"],
            "staleness_max": staleness["max"],
            "replica_lag_max": replica["lag_max"],
            "replica_converged": replica["converged"],
        },
        "overall": overall,
        "phases": {name: summarize(batch, budget=spec.deadline)
                   for name, batch in sorted(phases.items())},
        "priorities": dict(sorted(priorities.items())),
        "cache": cache,
        "staleness": staleness,
        "replica": replica,
        "biql": {"run": biql.count("ok"),
                 "refused": len(biql) - biql.count("ok")},
        "columnar": columnar,
        "virtual_makespan": makespan,
    })


def _rounded(value):
    """*value* with each float in it, however deep in dicts, rounded to
    6 places, so two same-seed runs serialize to identical bytes."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return round(value, 6) if isinstance(value, float) else value
