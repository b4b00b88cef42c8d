"""``federated_mix``: the Figure-1 spine in wall-clock.

Three sources sliced into four shards; per shard a
``CachedMediator(max_entries=64)`` with its default thread pool under a
``FederationServer``, fused by ``ShardedFederationServer``.  Requests go
through ``server.submit``.  Every hundred requests each source
``advance(2)``\\ s (untimed generation) and every shard cache runs a
timed ``sync`` — invalidation beside reads.  No faults are injected, so
nothing is shed and the virtual clock never moves: this is the speed of
the code on the hit path and the miss path (thread-pool start-up per
fan-out, wrappers re-parsing source text), not the modelled network.

State advances, so rounds are consecutive stretches of one op stream.
The oracle is the repo's bit-identity law: the sharded, cached, served
answer ≡ an unsharded ``Mediator(..., pool=SequentialPool())`` over the
same sources.
"""

from __future__ import annotations

from time import perf_counter

from repro.etl.wrappers import wrapper_for
from repro.federation.serving import ShardedFederationServer
from repro.federation.sharding import ShardMap, ShardSlice
from repro.mediator import CachedMediator, Mediator
from repro.mediator.pool import SequentialPool, ThreadedPool
from repro.serving.server import FederationServer, Request
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from repro.sources.universe import ORGANISMS

from harness import ORACLE_CHECKS_PER_CLASS, TracedPass, Workload
from opgen import (
    DATA_SEED,
    Op,
    Zipf,
    canon,
    random_dna,
    rng_for,
    stratified,
)
from stages import obs_overhead

SHARDS = 4
CACHE_ENTRIES = 64
SIZE = 300
QUICK_SIZE = 60
ROUND_REQUESTS = 400
SYNC_EVERY = 100
CHURN_STEPS = 2
BATCH = 8
BATCH_POOL = 48
#: Distinct ``find_genes`` queries.  Each stretch of 100 requests asks
#: its 10 in round-robin over the pool, so 8 miss after the churn's
#: invalidations and 2 hit — the same count on every seed, and enough
#: misses (8 %) that the p95 sits inside their body.
FIND_POOL = 8
SHARES = {"gene": 72, "genes": 18, "find_genes": 10}


def _views(genes) -> list[tuple]:
    return [(gene.accession, gene.source, gene.name, gene.organism,
             gene.description, gene.sequence_text) for gene in genes]


def _answer_text(kind: str, answer) -> str:
    """Canonical text of a mediated answer (``genes`` answers a batch:
    accession → views; the other kinds answer a list of views)."""
    if kind == "genes":
        return canon({accession: _views(views)
                      for accession, views in answer.items()})
    return canon(_views(answer))


class FederatedMix(Workload):
    name = "federated_mix"
    stationary = False
    stages = ("federation.serving.submit", "mediator.cache.sync")
    #: ``sync`` answers the deltas it applied; nothing recomputes those.
    oracle_classes = tuple(SHARES)

    def build(self) -> None:
        universe = Universe(seed=DATA_SEED,
                            size=QUICK_SIZE if self.quick else SIZE)
        clock = VirtualClock()
        self.sources = [GenBankRepository(universe),
                        EmblRepository(universe), AceRepository(universe)]
        self.accessions = sorted({accession for source in self.sources
                                  for accession in source.accessions()})
        self.shard_map = ShardMap.for_accessions(self.accessions, SHARDS)
        self.mediators = [
            CachedMediator([ShardSlice(source, self.shard_map, shard)
                            for source in self.sources],
                           max_entries=CACHE_ENTRIES, timeline=clock)
            for shard in range(self.shard_map.count)]
        self.server = ShardedFederationServer(
            self.shard_map,
            [FederationServer(mediator) for mediator in self.mediators])
        self._streams: dict[int, list[Op]] = {}

    def prepare(self) -> None:
        self.reference = Mediator(self.sources, pool=SequentialPool())
        # What can be asked is the same on every seed (it belongs to
        # the data); which of it is popular is the seed's.
        pools = rng_for(DATA_SEED, self.name, "pools")
        batches = [tuple(pools.sample(self.accessions, BATCH))
                   for __ in range(BATCH_POOL)]
        self._finds = [{"organism": organism} for organism in ORGANISMS]
        while len(self._finds) < FIND_POOL:
            self._finds.append({"contains_motif": random_dna(pools, 6)})
        keys = rng_for(self.seed, self.name, "keys")
        self._gene_keys = Zipf(self.accessions, keys)
        self._batches = Zipf(batches, keys)

    def _requests(self, rng, classes: list[str]) -> list[Op]:
        finds = rng.sample(self._finds, len(self._finds))
        asked = 0
        ops = []
        for cls in classes:
            if cls == "gene":
                params = {"accession": self._gene_keys.draw(rng)}
            elif cls == "genes":
                params = {"accessions": list(self._batches.draw(rng))}
            else:
                params = dict(finds[asked % len(finds)])
                asked += 1
            ops.append(Op(cls, params))
        return ops

    def _round(self, rng) -> list[Op]:
        """Stretches of requests, each followed by the sources' churn
        (untimed) and a timed ``sync`` of every shard cache."""
        per_stretch = SYNC_EVERY // (10 if self.quick else 1)
        ops: list[Op] = []
        for __ in range(ROUND_REQUESTS // SYNC_EVERY):
            ops += self._requests(rng, stratified(rng, SHARES, per_stretch))
            ops.append(Op("_churn"))
            ops += [Op("sync", shard)
                    for shard in range(self.shard_map.count)]
        return ops

    def warmup_ops(self) -> list[Op]:
        # A whole round, not a tenth of one: the caches reach their
        # steady hit ratio (0.69 → 0.85 for ``gene``) only after some
        # 400 requests, and round 0 must not differ from the others.
        return self._round(rng_for(self.seed, self.name, "warm-up"))

    def oracle_ops(self) -> list[Op]:
        return self._requests(
            rng_for(self.seed, self.name, "oracle"),
            [cls for cls in self.oracle_classes
             for __ in range(ORACLE_CHECKS_PER_CLASS)])

    def round_ops(self, index: int) -> list[Op]:
        # Rounds are requested in order; each is generated once.
        if index not in self._streams:
            self._streams[index] = self._round(
                rng_for(self.seed, self.name, f"round-{index}"))
        return self._streams[index]

    # -- execution --------------------------------------------------------

    def run(self, op: Op):
        if op.cls == "_churn":
            for source in self.sources:
                source.advance(CHURN_STEPS)
            return None
        if op.cls == "sync":
            return self.mediators[op.payload].sync()
        return self.server.submit(Request(op.cls, dict(op.payload)))

    def run_traced(self, op: Op, rec):
        if not op.timed:
            return self.run(op)
        name = ("mediator.cache.sync" if op.cls == "sync"
                else "federation.serving.submit")
        with rec.span(name):
            return self.run(op)

    def canon(self, op: Op, answer) -> str:
        if op.cls == "sync":
            return canon(sorted((delta.source, delta.accession,
                                 delta.operation) for delta in answer))
        if answer.shed:
            return f"shed:{answer.shed_reason}"
        return _answer_text(op.cls, answer.answer)

    def oracle(self, op: Op, answer) -> bool:
        want = getattr(self.reference, op.cls)(**op.payload)
        return self.canon(op, answer) == _answer_text(op.cls, want)

    def timing_key(self, op: Op, answer):
        return (op.cls, getattr(answer, "from_cache", None))

    # -- per-layer --------------------------------------------------------

    def _costs(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for mediator in self.mediators:
            for name in ("cache_hits", "cache_misses",
                         "cache_invalidations", "source_requests",
                         "bytes_shipped"):
                totals[name] = (totals.get(name, 0.0)
                                + getattr(mediator.cost, name))
        return totals

    def begin_trace(self, rec) -> None:
        self._before = self._costs()

    def end_trace(self, rec) -> None:
        after = self._costs()
        self._spent = {name: after[name] - self._before[name]
                       for name in after}

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        rec = trace.rec
        submit = rec.by_op("federation.serving.submit")
        hit_ms, miss_ms, touched, shed = [], [], 0, 0
        requests = 0
        for op_id, (op, answer) in enumerate(zip(trace.batch.ops,
                                                 trace.batch.answers)):
            if op.cls == "sync":
                continue
            requests += 1
            shed += bool(answer.shed)
            (hit_ms if answer.from_cache else miss_ms).append(submit[op_id])
            if op.cls == "gene":
                touched += 1
            elif op.cls == "genes":
                touched += len(self.shard_map.split(
                    dict.fromkeys(op.payload["accessions"])))
            else:
                touched += self.shard_map.count
        syncs = rec.count("mediator.cache.sync")
        spent = self._spent
        lookups = spent["cache_hits"] + spent["cache_misses"]
        values = {
            "mediator.cache.hit_ratio":
                spent["cache_hits"] / lookups if lookups else 0.0,
            "mediator.cache.invalidations_per_sync":
                spent["cache_invalidations"] / max(1, syncs),
            "mediator.cache.sync.ms_per_call":
                rec.total_ms("mediator.cache.sync") / max(1, syncs),
            "mediator.source_requests_per_op":
                spent["source_requests"] / requests,
            "mediator.bytes_shipped_per_op":
                spent["bytes_shipped"] / requests,
            "mediator.miss_path.ms_per_op":
                sum(miss_ms) / max(1, len(miss_ms)),
            "serving.hit_path.ms_per_op": sum(hit_ms) / max(1, len(hit_ms)),
            "serving.shed_frac": shed / requests,
            "federation.shards_touched_per_op": touched / requests,
        }
        values.update(self._replays())
        values["obs.enabled_overhead_frac"] = obs_overhead(
            self, self.round_ops(len(self._streams)))
        return values

    def _replays(self) -> dict[str, float]:
        """Work buried inside ``submit``, re-executed outside it."""
        width = len(self.sources)
        pool = ThreadedPool(width)
        fan_outs = 200
        start = perf_counter()
        for __ in range(fan_outs):
            pool.run([lambda: None] * width)
        dispatch_us = (perf_counter() - start) * 1e6 / fan_outs

        queryable = [source for source in self.sources
                     if source.capabilities.queryable]
        start = perf_counter()
        calls = 0
        for source in queryable:
            for accession in source.accessions()[:100]:
                source.query(accession)
                calls += 1
        query_ms = (perf_counter() - start) * 1000.0 / max(1, calls)

        start = perf_counter()
        snapshots = [(source.name, source.snapshot())
                     for source in self.sources]
        snapshot_ms = (perf_counter() - start) * 1000.0 / len(snapshots)

        parse_s, records = 0.0, 0
        for name, text in snapshots:
            wrapper = wrapper_for(name)
            for record in wrapper.split_snapshot(text)[:100]:
                start = perf_counter()
                wrapper.parse_record(record)
                parse_s += perf_counter() - start
                records += 1
        return {
            "mediator.pool.dispatch.us_per_fanout": dispatch_us,
            "sources.query.ms_per_call": query_ms,
            "sources.snapshot.ms_per_call": snapshot_ms,
            "etl.wrappers.parse.ms_per_record": parse_s * 1000.0 / records,
        }
