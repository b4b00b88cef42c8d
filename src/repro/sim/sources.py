"""One seeded schedule driver for mediated sources.

:func:`build` puts :class:`~repro.sources.FaultyRepository` proxies of
the named kinds on one virtual clock behind a
:class:`~repro.mediator.CachedMediator` (a monitor per source, the
cheapest Figure 2 allows) at fan-out *width*, or is
:func:`~repro.serving.overload_federation` for a serving *policy*, and
loads a warehouse from the clean repositories.  The macro day's
:class:`World` (:func:`repro.workload.simulator.build_macro_federation`)
adds shards, one mediator each behind a scatter-gather server, with
proxies keyed ``shard{k}:{source}``, and a follower of the warehouse's
WAL.  :func:`drive` applies a schedule to a world and returns a
:class:`Run`.  A step sets a proxy's faults (:data:`SETTERS`; *source*
may be ``"all"``) or is ``("churn", source, n)`` (each repository of
that name advances once), ``("advance", dt)``, ``("ask", kind[,
accession[, strict]])``, ``("poll", source)``, ``("sync",)`` (every
mediator), ``("refresh",)``, ``("trace", "on" | "off")``, ``("serve",
requests)``, ``("burst", n, load, seed)`` (*n* requests served at
*load* × capacity), ``("biql", text, priority)`` (admission-gated),
``("partition", dt[, delay])`` (the follower's channel), ``("ship",)``
(one catch-up round) or ``("drill",)`` (a ship under the next epoch,
then a straggler of the deposed one); a
:class:`~repro.errors.ReproError` it raises is logged.  After every
step the driver records each standing invariant broken: the mediator ≡
the warehouse (:func:`unreconciled`) bar accessions churned since the
last refresh; a live answer holds no key a fault-free mediation over
the clean repositories lacks (sharded ≡ unsharded), and each of its
keys from a source health names neither failed nor skipped; a skipped
source saw no call; no monitor deletes an accession its source holds or
delivers a ``delta_id`` twice, and after a poll without faults its
images are its source's split dump; a cached answer is fresh truth
unless a source changed since the last sync; a traced answer names a
captured trace; a shed names its reason and no source of the shard that
shed it; after a ship, scrub ≡ replay on every follower WAL file; the
drill's straggler is fenced.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from repro import obs
from repro.db.recovery import databases_equal
from repro.errors import FederationError, ReproError
from repro.etl.delta import DELETE
from repro.federation.replication import disk_shipments
from repro.lang.biql import BiqlSession
from repro.mediator import CachedMediator, Mediator
from repro.mediator.mediator import Request
from repro.serving import overload_federation, synthetic_workload
from repro.sim.clock import VirtualClock
from repro.sim.group import _files, _judge
from repro.sources import (
    AceRepository,
    Capabilities,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)
from repro.warehouse import Integrator, UnifyingDatabase

KINDS = {
    "GenBank": GenBankRepository,
    "EMBL": EmblRepository,
    "AceDB": AceRepository,
    # Figure 2's logged row: it keeps a change log and pushes nothing.
    "RelationalDB": lambda universe: RelationalRepository(
        universe, capabilities=Capabilities(queryable=True, logged=True)),
    "SwissProt": SwissProtRepository,
}
#: Three overlapping sources, each with its proxy's seed.
THREE = (("GenBank", 1), ("EMBL", 2), ("AceDB", 3))
#: ``fail`` the next *n* calls (a float: each at that rate), an
#: ``outage`` for *dt* from *delay* on, ``corrupt`` at a rate, ``slow``
#: each call by *latency* (a *rate* of them ten times), ``drop`` /
#: ``restore`` the ``"log"`` or ``"push"`` channel.
SETTERS = {
    "fail": lambda proxy, n, *operations: (
        proxy.fail_with_rate if isinstance(n, float) else proxy.fail_next)(
            n, *operations),
    "outage": lambda proxy, dt, delay=0.0: proxy.schedule_outage(
        proxy.timeline.now() + delay, proxy.timeline.now() + delay + dt),
    "corrupt": FaultyRepository.corrupt_with_rate,
    "slow": lambda proxy, latency, rate=0.0: proxy.add_latency(
        latency, slow_rate=rate),
    "drop": lambda proxy, channel: getattr(proxy, f"drop_{channel}_channel")(),
    "restore": lambda proxy, channel: getattr(
        proxy, f"restore_{channel}_channel")(),
}
ACTIONS = ("churn", "advance", "ask", "poll", "sync", "refresh", "trace",
           "serve", "burst", "biql", "partition", "ship", "drill")


#: The clock, the clean repositories, proxies by name, the mediators,
#: the server (or ``None``), the warehouse, and the follower and the
#: dock it ships from (or ``None``).
World = namedtuple("World", "clock repositories proxies mediators server "
                            "warehouse follower dock", defaults=(None, None))


@dataclass
class Run:
    """``steps`` pairs each step with ``"ok"`` or the error it raised;
    ``facts`` holds what each step showed, ``violations`` each standing
    invariant a step broke."""

    world: World
    steps: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    def shown(self, name: str):
        """Fact *name* as the last step that showed it shows it;
        ``name@k`` as step *k* does; ``cost.<counter>`` at the end,
        summed over the mediators."""
        if name.startswith("cost."):
            return sum(getattr(mediator.cost, name[5:])
                       for mediator in self.world.mediators)
        name, __, step = name.partition("@")
        facts = [self.facts[int(step)]] if step else self.facts[::-1]
        return next((shown[name] for shown in facts if name in shown), None)


def build(seed: int = 101, kinds=THREE, *, width: "int | None" = None,
          retry=None, breaker=None, policy=None) -> World:
    """The world of *kinds* (``(kind, proxy seed)`` pairs) over
    ``Universe(seed)``, or *policy*'s served federation."""
    if policy is not None:
        server, mediator, proxies, __ = overload_federation(
            seed=seed, policy=policy, max_concurrency=width)
    else:
        universe, clock = Universe(seed=seed, size=24), VirtualClock()
        proxies = [FaultyRepository(KINDS[kind](universe), clock, seed=number)
                   for kind, number in kinds]
        server, mediator = None, CachedMediator(
            proxies, retry_policy=retry, breaker_policy=breaker,
            timeline=clock, max_concurrency=width)
    repositories = [proxy.inner for proxy in proxies]
    # The mediator serves no genes from a protein databank.
    warehouse = UnifyingDatabase([repository for repository in repositories
                                  if not repository.stores_protein])
    warehouse.initial_load()
    return World(mediator.timeline, repositories,
                 {proxy.name: proxy for proxy in proxies}, [mediator],
                 server, warehouse)


def unreconciled(mediator, warehouse, skip=frozenset()) -> list:
    """The law "the mediator ≡ the warehouse": for each accession the
    warehouse's sources or ``public_genes`` hold, bar *skip* and the
    quarantined, ``Integrator().consolidate`` of the *mediator*'s records
    is its row on name, organism, description and sequence.  One line
    per accession it fails on, also one that only one side holds."""
    rows = {accession: tuple(values[:3]) + (str(values[3]),)
            for accession, *values in warehouse.query(
                "SELECT accession, name, organism, description, sequence "
                "FROM public_genes")}
    held = set(rows).union(*(source.accessions()
                             for source in warehouse.sources.values()))
    held -= skip | set(warehouse.quarantined().column("accession"))
    consolidate, broken = Integrator().consolidate, []
    for accession, records in mediator.genes(sorted(held)).items():
        merged = consolidate(records) if records else None
        mediated = merged and (merged.name, merged.organism,
                               merged.description, str(merged.dna))
        row = rows.get(accession)
        if mediated == row:
            continue
        if None in (mediated, row):
            side = "mediator" if row is None else "warehouse"
            broken.append(f"{accession}: only the {side} holds it")
        else:
            broken.append(f"{accession}: differs on " + ", ".join(
                name for name, mine, theirs in zip(
                    ("name", "organism", "description", "sequence"),
                    mediated, row) if mine != theirs))
    return broken


def _rows(answer) -> list:
    """``(source, accession, sequence)`` per view, in answer order."""
    views = ([view for views in answer.values() for view in views]
             if isinstance(answer, dict) else answer)
    return [(view.source, view.accession, view.sequence_text)
            for view in views]


def _show_health(health, facts: dict) -> None:
    facts.update(complete=health.complete, retried=health.sources_retried,
                 failed=health.sources_failed, skipped=health.sources_skipped,
                 retries=health.total_retries, elapsed=health.elapsed,
                 deadline_hit=health.deadline_hit,
                 attempts={name: outcome.attempts for name, outcome
                           in sorted(health.outcomes.items())})


class _Truth(Mediator):
    """The fault-free mediation over the clean repositories; it keeps
    each answer until a churn changes them."""

    def __init__(self, repositories, **options) -> None:
        super().__init__(repositories, **options)
        self.known = {}

    def answer(self, request: Request, **options):
        if request.key not in self.known:
            self.known[request.key] = super().answer(request, **options)
        return self.known[request.key]


class _Driver:
    """Applies steps to one world; each step method fills *facts*."""

    def __init__(self, world: World) -> None:
        self.world, self.record = world, Run(world)
        self.truth = _Truth(world.repositories, max_concurrency=1)
        self.keys = {id(proxy): name for name, proxy in world.proxies.items()}
        self.delivered, self.unsynced, self.pending = set(), set(), set()
        self.sink = None
        self.hits, self.index, self.step = 0, 0, None

    def named(self, source: str) -> list:
        return [proxy for name, proxy in self.world.proxies.items()
                if source in (name, "all")]

    def violate(self, message: str) -> None:
        self.record.violations.append(
            f"step {self.index} {self.step[0]}: {message}")

    def truthful(self, call, *arguments):
        """*call* with tracing suspended: what the driver asks itself,
        of the fault-free mediation, is in no trace."""
        tracer = obs.set_tracer(None)
        try:
            return call(*arguments)
        finally:
            obs.set_tracer(tracer)

    def reconcile(self) -> None:
        """The law, on every accession with no pending delta (none
        churned since the last refresh); it asks no faulty proxy."""
        for line in self.truthful(unreconciled, self.truth,
                                  self.world.warehouse, self.pending):
            self.violate(f"the mediator ≢ the warehouse: {line}")

    def proxies_named(self, names) -> dict:
        """The proxies a health's *names* may name: a scatter's are keys
        (``shard{k}:{source}``); a one-shard answer's are source names,
        taken here as that source's proxy on every shard (its rows come
        from one)."""
        return {key: proxy for key, proxy in self.world.proxies.items()
                if key in names or proxy.name in names}

    def hold(self, answer, request: Request, calls=None) -> None:
        """The answer invariants, for one answer to *request*."""
        health = answer.health
        if health.shed:
            # A scatter one shard shed still names the other shards'
            # sources, so the shed one is a shard no outcome names.
            shard = {key: key.rpartition(":")[0] for key in self.world.proxies}
            if not health.shed_reason or set(shard.values()) <= {
                    shard[key] for key in self.proxies_named(health.outcomes)}:
                self.violate(f"a shed as {health.summary()}")
            return
        truth = self.truthful(self.truth.answer, request)
        if answer.from_cache:
            if not self.unsynced and sorted(_rows(answer)) != sorted(
                    _rows(truth)):
                self.violate("a cached answer differs from fresh truth")
            return
        keys = {row[:2] for row in _rows(answer)}
        true = {row[:2] for row in _rows(truth)}
        down = {(proxy.name, accession) for proxy in self.proxies_named(
                    health.sources_failed + health.sources_skipped).values()
                for accession in proxy.accessions()}
        if keys - true:
            self.violate(f"rows no source holds: {sorted(keys - true)[:3]}")
        lost = true - down - keys
        if lost:
            self.violate(f"rows lost from live sources: {sorted(lost)[:3]}")
        for name in health.sources_skipped if calls else ():
            if self.world.proxies[name].stats.calls != calls[name]:
                self.violate(f"skipped source {name} saw a call")
        if self.sink is not None and health.trace_id not in {
                trace[0]["trace"] for trace in self.sink.traces}:
            self.violate(f"trace id {health.trace_id} names no trace")

    def deliver(self, mediator, names, poll) -> int:
        """Run *poll* over *mediator*'s monitors of *names*; hold the
        monitor invariants on what it delivers and on each fault-free
        monitor; return how many deltas it delivered."""
        proxies = {name: mediator.monitors[name].repository for name in names}

        def faults(name):
            return proxies[name].stats.failures, proxies[name].stats.corruptions

        before = {name: faults(name) for name in names}
        deltas = poll()
        for delta in deltas:
            if delta.delta_id in self.delivered:
                self.violate(f"delta {delta.delta_id} delivered twice")
            self.delivered.add(delta.delta_id)
            if delta.operation == DELETE and delta.accession in \
                    proxies[delta.source].inner.accessions():
                self.violate(f"a DELETE of {delta.accession}, which "
                             f"{delta.source} still holds")
        for name in names:
            monitor = mediator.monitors[name]
            if faults(name) == before[name] and monitor._images != \
                    monitor._split_snapshot(proxies[name].inner.snapshot()):
                self.violate(f"{name}'s monitor differs from its source "
                             f"after a fault-free poll")
        return len(deltas)

    # -- the alphabet -----------------------------------------------------------

    def churn(self, facts, source, n) -> None:
        touched = {entry.accession for repository in self.world.repositories
                   if source in (repository.name, "all")
                   for entry in repository.advance(n)}
        proxies = [proxy for proxy in self.world.proxies.values()
                   if source in (proxy.name, "all")]
        self.pending |= touched
        self.truth.known.clear()
        self.unsynced.update(self.keys[id(proxy)] for proxy in proxies)
        facts.update(touched=len(touched), dropped=sum(
            proxy.stats.dropped_notifications for proxy in proxies))

    def advance(self, facts, dt) -> None:
        self.world.clock.advance(dt)

    def ask(self, facts, kind, accession=None, strict=False) -> None:
        [mediator] = self.world.mediators
        request = Request(kind, {} if accession is None
                          else {"accession": accession})
        calls = {name: proxy.stats.calls
                 for name, proxy in self.world.proxies.items()}
        try:
            answer = mediator.answer(request, strict=strict)
        finally:
            facts["breakers"] = {
                wrapper.repository.name: wrapper.breaker.state
                for wrapper in mediator.wrappers
                if wrapper.breaker.state != "closed"}
            _show_health(mediator.last_health, facts)
        self.hits += answer.from_cache
        _show_health(answer.health, facts)
        facts.update(rows=_rows(answer), from_cache=answer.from_cache,
                     hits=self.hits)
        facts["sources"] = tuple(sorted({row[0] for row in facts["rows"]}))
        if self.sink is not None and answer.health.trace_id is not None:
            trace = next((trace for trace in self.sink.traces
                          if trace[0]["trace"] == answer.health.trace_id), [])
            facts["spans"] = {
                span["attrs"]["source"]: "{status}/{breaker}".format_map(
                    span["attrs"])
                for span in trace if span["name"] == "source.attempt"}
            facts["unavailable"] = ",".join(sorted({
                span["attrs"]["unavailable"] for span in trace
                if span["attrs"].get("degraded") is True}))
        self.hold(answer, request, calls=calls)

    def poll(self, facts, source) -> None:
        proxy = self.world.proxies[source]
        mediator, monitor = next(
            (mediator, monitor) for mediator in self.world.mediators
            for monitor in mediator.monitors.values()
            if monitor.repository is proxy)
        facts["deltas"] = self.deliver(mediator, (proxy.name,), monitor.poll)
        facts.update(degraded=monitor.health.degraded_polls,
                     quarantined=monitor.health.quarantined)

    def sync(self, facts) -> None:
        """Sweep every mediator; each one's staleness bound is read right
        after its own sweep, since later sweeps advance the clock."""
        facts.update(deltas=0, cached=0, staleness=0.0)
        suspect = set()
        for mediator in self.world.mediators:
            facts["deltas"] += self.deliver(mediator, tuple(mediator.monitors),
                                            mediator.sync)
            facts["staleness"] = max(facts["staleness"],
                                     mediator.staleness_bound())
            facts["cached"] += len(mediator.cache)
            suspect.update(self.keys[id(mediator.monitors[name].repository)]
                           for name in mediator.suspect_sources)
        self.unsynced &= suspect
        facts["suspect"] = tuple(sorted(suspect))
        if self.world.follower is not None:
            facts["lag"] = self.world.follower.staleness_bound()

    def refresh(self, facts) -> None:
        facts["refreshed"] = self.world.warehouse.refresh().deltas_processed
        self.pending.clear()

    def trace(self, facts, switch) -> None:
        if switch == "on":
            self.sink = obs.InMemorySink()
            obs.enable(clock=self.world.clock, sink=self.sink)
        else:
            obs.disable()
            facts["traces"] = len(self.sink.traces)
            self.sink = None

    def serve(self, facts, requests) -> list:
        facts["served"] = self.world.server.serve(requests)
        for request, result in zip(requests, facts["served"]):
            self.hold(result.answer, request)
        return facts["served"]

    def burst(self, facts, n, load, seed) -> None:
        server = self.world.server
        accessions = sorted(set().union(*(
            proxy.accessions() for proxy in self.world.proxies.values())))[:8]
        results = self.serve(facts, synthetic_workload(
            accessions, count=n, load_factor=load,
            capacity=server.policy.capacity, mean_service=3.0, seed=seed))
        good = [not result.shed
                and result.in_deadline(server.policy.deadline)
                for result in results]
        ladder = server.brownout
        facts.update(
            good=sum(good), shed=sum(result.shed for result in results),
            tail=next((index for index, ok in enumerate(reversed(good))
                       if not ok), len(good)),
            brownout=ladder.level_name,
            peak=max((level for __, level in ladder.transitions), default=0),
            limited=tuple(sorted(
                name for name, limiter in server.limiters.items() if
                limiter.decreases and limiter.limit < server.policy.capacity)))

    def biql(self, facts, text, priority) -> None:
        BiqlSession(self.world.warehouse, server=self.world.server,
                    priority=priority).run(text)

    def partition(self, facts, dt, delay=0.0) -> None:
        now = self.world.clock.now()
        self.world.follower.channel.partition(now + delay, now + delay + dt)

    def ship(self, facts) -> None:
        """One catch-up round, then scrub ≡ replay on each follower WAL
        file; ``converged``: the follower equals the warehouse."""
        follower = self.world.follower
        follower.catch_up(self.world.dock)
        disagreements = []
        for path in _files(follower.directory, "wal"):
            _judge(path, disagreements)
        for line in disagreements:
            self.violate(line)
        facts["converged"] = databases_equal(self.world.warehouse.db,
                                             follower.database)

    def drill(self, facts) -> None:
        """The fence drill: the dock claims the next epoch and ships;
        then a straggler of the deposed epoch must be fenced."""
        dock = self.world.dock
        deposed, dock.epoch = dock.epoch, dock.epoch + 1
        self.ship(facts)
        dock.wal.flush()
        try:
            self.world.follower.apply_shipment(
                disk_shipments(dock.wal.path, epoch=deposed)[0])
        except FederationError:
            return
        self.violate(f"a straggler of deposed epoch {deposed} was applied")


def drive(world: World, schedule) -> Run:
    """Apply *schedule* to *world* and return the record."""
    driver = _Driver(world)
    try:
        for driver.index, driver.step in enumerate(schedule):
            action, *arguments = driver.step
            if action not in (*ACTIONS, *SETTERS):
                raise ValueError(f"unknown schedule action {driver.step!r}")
            facts: dict = {}
            try:
                if action in SETTERS:
                    for proxy in driver.named(arguments[0]):
                        SETTERS[action](proxy, *arguments[1:])
                else:
                    getattr(driver, action)(facts, *arguments)
                outcome = "ok"
            except ReproError as error:
                facts["error"] = type(error).__name__
                outcome = error
            driver.record.steps.append((driver.step, outcome))
            driver.record.facts.append(facts)
            driver.reconcile()
    finally:
        if driver.sink is not None:
            obs.disable()
    return driver.record
