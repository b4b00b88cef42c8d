"""Command-line entry point: ``python -m repro <verb>``.

Each verb is declared once, in :data:`VERBS`: the function that runs
it, its help line and its arguments.  ``python -m repro --help`` lists
the verbs, ``python -m repro <verb> --help`` one verb's arguments.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple


def _run_demo(arguments) -> int:
    from repro import Database, genomics_algebra, install_genomics
    from repro.core.types import DnaSequence, Gene, Interval

    gene = Gene(
        name="demo",
        sequence=DnaSequence("ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG"),
        exons=(Interval(0, 12), Interval(18, 39)),
    )
    algebra = genomics_algebra()
    term = algebra.parse("translate(splice(transcribe(g)))",
                         variables={"g": "gene"})
    protein = algebra.evaluate(term, {"g": gene})
    print(f"term     {term}")
    print(f"protein  {protein.sequence}")

    database = Database()
    install_genomics(database)
    database.execute(
        "CREATE TABLE dna_fragments (id INTEGER PRIMARY KEY, fragment DNA)"
    )
    database.execute(
        "INSERT INTO dna_fragments VALUES (1, dna('ATGATTGCCATAGGG'))"
    )
    result = database.query(
        "SELECT id FROM dna_fragments WHERE contains(fragment, 'ATTGCCATA')"
    )
    print(f"SQL      SELECT id FROM dna_fragments "
          f"WHERE contains(fragment, 'ATTGCCATA')  ->  {result.rows}")
    return 0


def _run_matrix(arguments) -> int:
    from repro.evaluation import CapabilityMatrix

    matrix = CapabilityMatrix.build()
    print(matrix.to_text())
    ok = matrix.genalg_matches_claim() and matrix.literature_matches_paper()
    print(f"\nTable 1 reproduced: {ok}")
    return 0 if ok else 1


def _run_shell(arguments) -> int:
    from repro.lang.biql.repl import BiqlRepl, demo_session

    print("building a demo warehouse (3 sources)...")
    BiqlRepl(demo_session()).run()
    return 0


def _run_quality(arguments) -> int:
    from repro.sources import (
        AceRepository,
        EmblRepository,
        GenBankRepository,
        Universe,
    )
    from repro.warehouse import (
        UnifyingDatabase,
        accuracy_against_truth,
        source_quality_report,
    )

    universe = Universe(seed=7, size=80)
    sources = [
        GenBankRepository(universe, error_rate=0.4),
        EmblRepository(universe, error_rate=0.3),
        AceRepository(universe, error_rate=0.3),
    ]
    warehouse = UnifyingDatabase(sources, with_indexes=False)
    warehouse.initial_load()
    print("per-source agreement with the reconciled consensus:")
    for entry in source_quality_report(warehouse):
        print(f"  {entry}")
    report = accuracy_against_truth(warehouse, universe)
    print(f"\nexact-sequence accuracy vs ground truth:")
    for source, accuracy in report.source_accuracy.items():
        print(f"  {source:<14} {accuracy:.0%}")
    print(f"  {'warehouse':<14} {report.warehouse_accuracy:.0%}  "
          f"(reconciled, {report.genes_scored} genes)")
    return 0


def _run_recover(arguments) -> int:
    from repro.db.recovery import recover
    from repro.sim.matrix import self_test

    if arguments.self_test:
        return 0 if self_test("recover") else 1
    if arguments.wal is None:
        print("recover: --wal is required (or use --self-test)",
              file=sys.stderr)
        return 2
    database = None
    if arguments.genomics:
        from repro.adapter import install_genomics
        from repro.db import Database

        database = Database()
        install_genomics(database)
    recovered, report = recover(arguments.image or "", arguments.wal,
                                database=database)
    print(f"recovered: {report.summary()}")
    for name in recovered.catalog.table_names:
        count = recovered.query(
            f"SELECT count(*) FROM {name}"
        ).scalar()
        print(f"  {name:<20} {count} rows")
    if arguments.output:
        from repro.db.storage import save_database

        save_database(recovered, arguments.output)
        print(f"checkpointed recovered state to {arguments.output}")
    return 0


def _run_chaos(arguments) -> int:
    from repro.errors import SettingError
    from repro.sim.matrix import self_test

    if arguments.concurrency is not None and arguments.concurrency < 1:
        print("chaos: --concurrency must be >= 1", file=sys.stderr)
        return 2
    if arguments.self_test:
        try:
            passed = self_test("chaos", width=arguments.concurrency,
                               only=arguments.only)
        except SettingError as error:
            print(f"chaos: {error}", file=sys.stderr)
            return 2
        return 0 if passed else 1
    print("chaos: --self-test is the only mode (runs the scenario matrix)",
          file=sys.stderr)
    return 2


def _run_scrub(arguments) -> int:
    from repro.db.scrub import scrub
    from repro.sim.matrix import self_test

    if arguments.self_test:
        return 0 if self_test("scrub") else 1
    if arguments.image is None and arguments.wal is None:
        print("scrub: give --image and/or --wal (or use --self-test)",
              file=sys.stderr)
        return 2
    report = scrub(arguments.image, arguments.wal)
    print(f"scrub: {report.summary()}")
    for verdict in report.verdicts:
        print(verdict.line())
    return 0 if report.ok else 1


def _build_observed_federation(seed: int, size: int):
    """Four faultable sources, a warehouse over them, a cached mediator.

    The shared fixture behind ``trace`` and ``stats``: GenBank, EMBL,
    AceDB and SwissProt behind :class:`FaultyRepository` proxies on one
    ``VirtualClock``, loaded into a :class:`UnifyingDatabase` *before*
    any faults are scheduled, plus a :class:`CachedMediator` with tight
    retry/breaker policies so injected faults play out within a few
    queries.
    """
    from repro.mediator import BreakerPolicy, CachedMediator, RetryPolicy
    from repro.sources import (
        AceRepository,
        EmblRepository,
        FaultyRepository,
        GenBankRepository,
        SwissProtRepository,
        Universe,
        VirtualClock,
    )
    from repro.warehouse import UnifyingDatabase

    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    sources = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=31),
        FaultyRepository(EmblRepository(universe), timeline, seed=32),
        FaultyRepository(AceRepository(universe), timeline, seed=33),
        FaultyRepository(SwissProtRepository(universe), timeline, seed=34),
    ]
    warehouse = UnifyingDatabase(sources, with_indexes=False)
    warehouse.initial_load()
    mediator = CachedMediator(
        sources,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=5.0,
                                 multiplier=2.0, jitter=0.0),
        breaker_policy=BreakerPolicy(failure_threshold=3,
                                     reset_timeout=30.0),
        timeline=timeline,
    )
    return timeline, sources, warehouse, mediator


def _run_trace(arguments) -> int:
    from repro import obs
    from repro.lang.biql import BiqlSession

    timeline, sources, warehouse, mediator = _build_observed_federation(
        arguments.seed, arguments.size)
    genbank, swissprot = sources[0], sources[3]
    # Mild chaos, scheduled after the initial load so the warehouse is
    # whole: GenBank's two failures are absorbed by retries, SwissProt's
    # three exhaust them and open its circuit breaker.  GenBank is a
    # snapshot-only source; SwissProt is queryable.
    genbank.fail_next(2, "snapshot")
    swissprot.fail_next(3, "query_accessions")
    sink = obs.JsonlTraceSink(arguments.jsonl) if arguments.jsonl else None
    tracer = obs.enable(sample_rate=1.0, clock=timeline, sink=sink)
    try:
        session = BiqlSession(warehouse)
        with obs.span("federated.query", query=arguments.query):
            warehouse_rows = session.run(arguments.query)
            retried = mediator.find_genes()   # GenBank retried, SwissProt
            #                                   fails; breaker opens
            skipped = mediator.find_genes()   # SwissProt skipped: breaker
            #                                   open, degraded answer
            timeline.advance(60.0)            # reset timeout elapses
            recovered = mediator.find_genes()  # half-open probe recloses;
            #                                    complete answer, cached
            cached = mediator.find_genes()     # served from cache
    finally:
        obs.disable()
    trace_id, spans = next(reversed(tracer.traces.items()))
    print(f"trace {trace_id} — {len(spans)} spans, one federated query "
          f"over {len(sources)} faulty sources\n")
    print(obs.render_trace([record.to_dict() for record in spans]))
    print(f"\nwarehouse (BiQL): {len(warehouse_rows.rows)} rows")
    for label, answers in (("retry+failure ", retried),
                           ("breaker-open  ", skipped),
                           ("recovered     ", recovered),
                           ("cache-hit     ", cached)):
        health = answers.health
        print(f"mediated {label} {health.summary():<60} "
              f"trace={health.trace_id}  from_cache={answers.from_cache}")
    if sink is not None:
        print(f"\n{sink.exported} spans exported to {arguments.jsonl}")
    return 0


def _run_stats(arguments) -> int:
    from repro import obs
    from repro.workload import columnar_analytics

    registry = obs.enable_metrics()
    try:
        __, sources, warehouse, mediator = _build_observed_federation(
            arguments.seed, arguments.size)
        sources[0].fail_next(2)
        mediator.find_genes()
        mediator.find_genes()                 # second pass hits the cache
        for source in sources:
            source.advance(2)
        mediator.sync()
        warehouse.refresh()
        # Analytical pass over a budgeted column-store copy of the
        # warehouse, so columnar_* / executor_* counters show up too.
        columnar_analytics(warehouse.db)
        print(registry.to_prometheus_text())
    finally:
        obs.disable_metrics()
    return 0


def _run_overload(arguments) -> int:
    from repro.serving import (
        ServingPolicy,
        overload_federation,
        summarize,
        synthetic_workload,
    )

    deadline = 25.0

    def serve(protected: bool):
        policy = (None if protected
                  else ServingPolicy.unprotected(capacity=4,
                                                 deadline=deadline))
        server, mediator, __, accessions = overload_federation(policy=policy)
        requests = synthetic_workload(
            accessions, count=arguments.count,
            load_factor=arguments.load, capacity=4,
            mean_service=3.0, seed=arguments.seed)
        stats = summarize(server.serve(requests), budget=deadline)
        return stats, server, mediator

    print(f"overload workload: {arguments.count} requests at "
          f"{arguments.load}x capacity, deadline {deadline} "
          f"(seed {arguments.seed})\n")
    rows = []
    for label, protected in (("protected", True), ("unprotected", False)):
        stats, server, mediator = serve(protected)
        shed = ", ".join(f"{reason}={count}" for reason, count
                         in sorted(stats["shed_by_reason"].items())) or "-"
        rows.append((label, stats["good"] / stats["makespan"],
                     stats["good"], stats["p50"], stats["p99"], shed))
        if protected:
            hedge_line = (f"  hedges: {mediator.cost.hedges_issued} issued, "
                          f"{mediator.cost.hedges_won} won; "
                          f"retry denials: "
                          f"{mediator.cost.retry_budget_denials}; "
                          f"brownout transitions: "
                          f"{len(server.brownout.transitions)}\n"
                          f"  records: {mediator.cost.records_wrapped} "
                          f"wrapped, {mediator.cost.records_parsed} parsed")
    header = (f"  {'':<12} {'good/s':>7} {'good':>5} {'p50':>6} "
              f"{'p99':>6}  shed")
    print(header)
    for label, goodput, good, p50, p99, shed in rows:
        print(f"  {label:<12} {goodput:>7.2f} {good:>5} {p50:>6.1f} "
              f"{p99:>6.1f}  {shed}")
    print(hedge_line)
    protected_goodput, unprotected_goodput = rows[0][1], rows[1][1]
    print(f"\nprotection keeps {protected_goodput / unprotected_goodput:.2f}x "
          f"the unprotected goodput at {arguments.load}x load")
    return 0


def _run_macro(arguments) -> int:
    from repro.serving.policy import PRIORITY_NAMES
    from repro.workload import MacroSpec, run_macro

    spec = (MacroSpec.quick(arguments.seed) if arguments.quick
            else MacroSpec.full(arguments.seed))
    print(f"day-in-the-life macro workload ({spec.name} mode, "
          f"seed {spec.seed}): {spec.shards} shards x "
          f"{spec.capacity} lanes, {spec.users} tenants, "
          f"{spec.total_epochs} epochs of {spec.epoch_length:.0f} "
          f"virtual s, {spec.scheduled('outage')} scheduled outages\n")
    payload = run_macro(spec)
    headline = payload["headline"]
    workload = payload["workload"]
    print(f"  offered {workload['requests']} requests from "
          f"{workload['active_tenants']} active tenants, "
          f"{workload['biql_statements']} BiQL statements "
          f"({payload['biql']['refused']} refused under load)\n")
    print(f"  {'phase':<10} {'offered':>7} {'good':>6} {'goodput':>8} "
          f"{'shed':>6} {'p99':>8}")
    for name, stats in payload["phases"].items():
        print(f"  {name:<10} {stats['offered']:>7} {stats['good']:>6} "
              f"{stats['goodput_ratio']:>8.3f} {stats['shed']:>6} "
              f"{stats['p99']:>8.2f}")
    print(f"\n  {'priority':<13} {'offered':>7} {'goodput':>8} "
          f"{'shed':>6}")
    for name in PRIORITY_NAMES.values():
        stats = payload["priorities"].get(name)
        if stats:
            print(f"  {name:<13} {stats['offered']:>7} "
                  f"{stats['goodput_ratio']:>8.3f} {stats['shed']:>6}")
    cache = payload["cache"]
    replica = payload["replica"]
    print(f"\n  goodput {headline['goodput_ratio']:.3f}, "
          f"p50 {headline['p50_latency']:.2f}, "
          f"p99 {headline['p99_latency']:.2f}, "
          f"shed rate {headline['shed_rate']:.3f}")
    print(f"  cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {headline['cache_hit_rate']:.3f}), "
          f"{cache['invalidations']} delta invalidations")
    print(f"  staleness bound peaked at "
          f"{headline['staleness_max']:.1f} virtual s; replica lag "
          f"peaked at {headline['replica_lag_max']:.1f} "
          f"({replica['applied_statements']} statements shipped)")
    print(f"  replica converged with the warehouse: "
          f"{headline['replica_converged']}")
    return 0 if headline["replica_converged"] else 1


def _run_shard(arguments) -> int:
    from repro.federation import sharded_federation
    from repro.serving import summarize, synthetic_workload
    from repro.sim import group as sim
    from repro.sim.matrix import REPLICA_FAILOVER

    deadline = 25.0
    print(f"scatter-gather federation: {arguments.count} requests at "
          f"{arguments.load}x single-shard capacity, deadline {deadline} "
          f"(seed {arguments.seed})\n")
    print(f"  {'shards':>6} {'good':>5} {'shed':>5} {'good/s':>7} "
          f"{'p95':>6}  ranges")
    baseline = None
    for shards in (1, 2, 4, 8):
        server, shard_map, accessions, __ = sharded_federation(shards)
        requests = synthetic_workload(
            accessions, count=arguments.count, load_factor=arguments.load,
            capacity=4, mean_service=3.0, seed=arguments.seed,
            batch_size=1)
        window = max(request.arrival for request in requests) + deadline
        stats = summarize(server.serve(requests), budget=deadline)
        qps = stats["good"] / window
        baseline = baseline or qps
        ranges = ", ".join(shard_map.describe()[:2])
        if shard_map.count > 2:
            ranges += f", … ({shard_map.count} ranges)"
        print(f"  {shards:>6} {stats['good']:>5} {stats['shed']:>5} "
              f"{qps:>7.2f} {stats['p95']:>6.1f}  {ranges}")
    print(f"\n  in-deadline QPS scales {qps / baseline:.1f}x from 1 to 8 "
          f"shards under the same offered load")

    print("\nWAL-shipped replica failover (chaos scenario 12):")
    record = sim.run(REPLICA_FAILOVER)
    print(f"  {record.verdict.acknowledgments} statements acknowledged "
          f"across a rotation; alpha died mid-append")
    for name, epoch, elapsed in record.promotions:
        print(f"  promoted {name} under epoch {epoch} in {elapsed:.2f} "
              f"virtual s (window {record.group.promotion_window:.1f})")
    print(f"  promoted state intact: {record.verdict.ok}; WAL continues "
          f"at generation {record.group.primary.wal.generation}")
    return 0 if record.verdict.ok else 1


def _run_partition(arguments) -> int:
    from repro.errors import LeaseError
    from repro.sim import group as sim
    from repro.sim.matrix import split_brain

    lease_timeout = arguments.lease
    duration = arguments.duration
    if lease_timeout <= 0 or duration <= lease_timeout:
        print("partition: --duration must exceed --lease (> 0)",
              file=sys.stderr)
        return 2
    print(f"epoch-fenced failover under a one-way partition "
          f"(lease {lease_timeout:.1f}s, partition {duration:.1f}s, "
          f"seed {arguments.seed}, virtual time)\n")
    record = sim.run(split_brain(lease_timeout, duration),
                     seed=arguments.seed, lease_timeout=lease_timeout)
    print("  alpha elected under epoch 1; its first writes are "
          "acknowledged and replicated")
    print("  partition opens: alpha keeps acknowledging writes its "
          "followers will never see")
    for __, error in record.steps:
        if isinstance(error, LeaseError):
            print(f"  lease dies at t={error.now:.1f}: write refused "
                  f"({error.kind})")
    for name, epoch, elapsed in record.promotions:
        print(f"  {name} promoted under epoch {epoch} in {elapsed:.2f} "
              f"virtual s; the new line of history ships cleanly")
    for follower, __, epoch, fenced in record.fences:
        print(f"  heal: {follower} fences the zombie's epoch-{epoch} "
              f"shipment ({fenced} fenced)")
    for divergence in record.divergences:
        lost = divergence.acknowledged_lost
        print(f"  {divergence.node} demotes: {len(lost)} "
              f"acknowledged-but-lost statement(s) quarantined and named:")
        for statement in lost:
            print(f"    gen {statement.generation} index "
                  f"{statement.index}: {statement.sql}")
    print(f"\n  audit: {record.verdict.summary()}")
    print(f"  rejoined replica converged with {record.group.primary.name}: "
          f"{record.verdict.ok}")
    return 0 if record.verdict.ok else 1


class Verb(NamedTuple):
    """One ``python -m repro`` verb: what runs it, its help line, and its
    arguments as ``(flags, add_argument options)`` pairs."""

    run: Callable
    help: str
    arguments: tuple = ()


def _arg(*flags: str, **options) -> tuple:
    return flags, options


#: The demo federation's shape, shared by ``trace`` and ``stats``.
_UNIVERSE = (_arg("--seed", type=int, default=11,
                  help="universe seed (default 11)"),
             _arg("--size", type=int, default=24,
                  help="universe size (default 24)"))

#: Every verb the command line knows, in ``--help`` order.
VERBS = {
    "demo": Verb(_run_demo, "the quickstart pipeline (algebra + extended "
                            "SQL) on synthetic data"),
    "matrix": Verb(_run_matrix, "reproduce Table 1 with live capability "
                                "probes"),
    "quality": Verb(_run_quality, "measured per-source quality of a noisy "
                                  "multi-source warehouse (B10)"),
    "shell": Verb(_run_shell, "an interactive BiQL session over a demo "
                              "warehouse"),
    "recover": Verb(_run_recover, "rebuild a database from image + WAL", (
        _arg("--image", default=None, help="checkpoint image path"),
        _arg("--wal", default=None, help="write-ahead log path"),
        _arg("--output", default=None,
             help="write the recovered state to a fresh image"),
        _arg("--genomics", action="store_true",
             help="register the genomic UDTs/UDFs before restoring"),
        _arg("--self-test", action="store_true",
             help="run the fault-injection crash matrix and exit"),
    )),
    "chaos": Verb(_run_chaos, "federation fault-injection scenario matrix", (
        _arg("--self-test", action="store_true",
             help="run the fault/degradation scenario matrix and exit"),
        _arg("--concurrency", type=int, default=None,
             help="mediator fan-out width for the scenarios (default: one "
                  "worker per source)"),
        _arg("--only", default=None, metavar="NAME",
             help="run a single scenario by name (e.g. bit-rot-repair)"),
    )),
    "scrub": Verb(_run_scrub, "verify on-disk image/WAL checksums without "
                              "replaying", (
        _arg("--image", default=None, help="checkpoint image path"),
        _arg("--wal", default=None,
             help="write-ahead log path (its sealed segments are scanned "
                  "too)"),
        _arg("--self-test", action="store_true",
             help="run the seeded corruption matrix and exit"),
    )),
    "trace": Verb(_run_trace, "trace one federated query end to end", (
        _arg("query", nargs="?",
             default="FIND genes SHOW accession, name LIMIT 5",
             help="BiQL query to run against the warehouse leg"),
        _arg("--jsonl", default=None,
             help="also export the trace as JSONL (one span per line)"),
        *_UNIVERSE,
    )),
    "stats": Verb(_run_stats, "Prometheus-style metrics dump of a small "
                              "workload", _UNIVERSE),
    "overload": Verb(_run_overload, "protected vs unprotected serving under "
                                    "an overload storm", (
        _arg("--load", type=float, default=4.0,
             help="offered load as a multiple of serving capacity "
                  "(default 4.0)"),
        _arg("--count", type=int, default=120,
             help="number of requests (default 120)"),
        _arg("--seed", type=int, default=3,
             help="workload seed (default 3)"),
    )),
    "shard": Verb(_run_shard, "scatter-gather sharding scale-up plus "
                              "replica failover demo", (
        _arg("--load", type=float, default=24.0,
             help="offered load as a multiple of one shard's capacity "
                  "(default 24.0)"),
        _arg("--count", type=int, default=280,
             help="number of requests (default 280)"),
        _arg("--seed", type=int, default=9,
             help="workload seed (default 9)"),
    )),
    "macro": Verb(_run_macro, "day-in-the-life macro workload through the "
                              "full stack", (
        _arg("--quick", action="store_true",
             help="the scaled-down CI day instead of the full one"),
        _arg("--seed", type=int, default=0, help="day seed (default 0)"),
    )),
    "partition": Verb(_run_partition, "epoch-fenced failover demo: zombie "
                                      "primary, lease expiry, fencing, "
                                      "divergence audit", (
        _arg("--lease", type=float, default=2.0,
             help="lease timeout in virtual seconds (default 2.0)"),
        _arg("--duration", type=float, default=60.0,
             help="partition duration in virtual seconds (default 60.0; "
                  "must exceed the lease)"),
        _arg("--seed", type=int, default=0,
             help="channel fault seed (default 0)"),
    )),
}


def main(argv: "list[str] | None" = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Genomics Algebra + Unifying Database "
                    "(CIDR 2003 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        verb_parser = subparsers.add_parser(name, help=verb.help)
        verb_parser.set_defaults(run=verb.run)
        for flags, options in verb.arguments:
            verb_parser.add_argument(*flags, **options)
    arguments = parser.parse_args(argv)
    return arguments.run(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
