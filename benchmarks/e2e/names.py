"""Every name the benchmark prints: workloads, op classes, metrics.

``BENCHMARK.json`` at the repository root declares the same workloads
and metrics for the driver; ``run.py --check`` fails when the two lists
disagree, so this module is the single place a name is spelled.
"""

from __future__ import annotations

#: workload → its timed operation classes (the ``class.<name>.p50_ms``
#: metrics).  The two analytics workloads run one op list on purpose.
_ANALYTICS = ("range", "agg", "kernel_agg", "group", "motif_count", "sort")
CLASSES: dict[str, tuple[str, ...]] = {
    "biql_interactive": ("point", "head", "count", "organism", "extent",
                         "motif10", "join"),
    "algebra_scan": ("computed", "resembles", "motif5", "express",
                     "proteins"),
    "analytics_fit": _ANALYTICS,
    "analytics_outofcore": _ANALYTICS,
    "federated_mix": ("gene", "genes", "find_genes", "sync"),
    "etl_durable": ("refresh", "ship", "read", "follower_read",
                    "checkpoint"),
}

WORKLOADS = tuple(CLASSES)

#: (name, unit, better) — what a user of the system sees.  A share of
#: failed operations is not here: the driver's contract wants metrics
#: that are never 0, so failures travel in the result line's
#: ``attempted`` / ``failed`` counts instead.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

_LAYERS = (
    ("lang.biql.parse.ms_per_op", "ms", "lower"),
    ("lang.biql.translate.ms_per_op", "ms", "lower"),
    ("db.sql.parse.ms_per_op", "ms", "lower"),
    ("db.sql.plan.ms_per_op", "ms", "lower"),
    ("db.sql.execute.ms_per_op", "ms", "lower"),
    ("db.sql.parse_plan_share", "ratio", "lower"),
    ("db.sql.statements_per_cycle", "count", "lower"),
    ("db.index.kmer.search.ms_per_call", "ms", "lower"),
    ("db.index.kmer.useful_ratio", "ratio", "higher"),
    ("core.ops.replay.ms_per_op", "ms", "lower"),
    ("core.ops.share_of_execute", "ratio", "higher"),
    ("core.ops.resembles.ms_per_call", "ms", "lower"),
    ("adapter.encode.us_per_value", "us", "lower"),
    ("adapter.decode.us_per_value", "us", "lower"),
    ("db.columnar.pages_read_per_op", "count", "lower"),
    ("db.columnar.zone_skip_ratio", "ratio", "higher"),
    ("db.columnar.page_fault_ratio", "ratio", "lower"),
    ("db.columnar.pages_evicted_per_op", "count", "lower"),
    ("db.columnar.spill_bytes_per_op", "B", "lower"),
    ("db.columnar.spill_runs_per_op", "count", "lower"),
    ("db.columnar.resident_peak_frac", "ratio", "lower"),
    ("db.columnar.page_bytes_per_raw_byte", "ratio", "lower"),
    ("db.storage.wal_append.ms_per_cycle", "ms", "lower"),
    ("db.storage.wal_flushes_per_cycle", "count", "lower"),
    ("db.storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("db.storage.image_bytes_per_user_byte", "ratio", "lower"),
    ("db.storage.checkpoint.ms", "ms", "lower"),
    ("db.storage.recover.ms", "ms", "lower"),
    ("db.storage.recover.stmts_per_s", "1/s", "higher"),
    ("etl.monitors.poll.ms_per_cycle", "ms", "lower"),
    ("etl.monitors.cost_units_per_delta", "count", "lower"),
    ("etl.wrappers.parse.ms_per_record", "ms", "lower"),
    ("warehouse.refresh.ms_per_cycle", "ms", "lower"),
    ("warehouse.refresh.self_ms_per_cycle", "ms", "lower"),
    ("warehouse.deltas_per_cycle", "count", "higher"),
    ("warehouse.initial_load.records_per_s", "1/s", "higher"),
    ("sources.query.ms_per_call", "ms", "lower"),
    ("sources.snapshot.ms_per_call", "ms", "lower"),
    ("mediator.cache.hit_ratio", "ratio", "higher"),
    ("mediator.cache.invalidations_per_sync", "count", "lower"),
    ("mediator.cache.sync.ms_per_call", "ms", "lower"),
    ("mediator.source_requests_per_op", "count", "lower"),
    ("mediator.bytes_shipped_per_op", "B", "lower"),
    ("mediator.pool.dispatch.us_per_fanout", "us", "lower"),
    ("mediator.miss_path.ms_per_op", "ms", "lower"),
    ("serving.hit_path.ms_per_op", "ms", "lower"),
    ("serving.shed_frac", "ratio", "lower"),
    ("federation.shards_touched_per_op", "count", "lower"),
    ("federation.replication.ship_apply.ms_per_cycle", "ms", "lower"),
    ("federation.replication.apply.stmts_per_s", "1/s", "higher"),
    ("federation.replication.shipped_bytes_per_wal_byte", "ratio",
     "lower"),
    ("obs.enabled_overhead_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
    ("bench.box_slowdown", "ratio", "lower"),
)


#: The traced pass's metrics.  Every workload prints all of them; a
#: layer the workload never reaches reads 0.
PER_LAYER = _LAYERS + tuple(
    (f"class.{name}.p50_ms", "ms", "lower")
    for name in dict.fromkeys(name for classes in CLASSES.values()
                              for name in classes))

UNITS = {name: unit for name, unit, __ in END_TO_END + PER_LAYER}
