"""Experiment A12 — what does sharding buy, and what does failover cost?

The federation PR's claim: partitioning the mediator tier by accession
range multiplies serving capacity, because a point lookup (80% of the
calibrated mix) occupies exactly one shard's lanes while the other
shards serve other clients.  Extent queries still scatter to every
shard, so the scale-up is sub-linear by design — this ablation
measures how sub-linear.

The workload is the same saturating request stream
(:func:`repro.serving.synthetic_workload`, single-accession batches)
offered to 1-, 2-, 4- and 8-shard federations built by
:func:`repro.federation.sharded_federation` — same universe, same
faults, same arrivals, same deadline.  The figure of merit is
**in-deadline QPS**: answers delivered inside the deadline, divided by
the offered window (last arrival + deadline).  The window is fixed
across shard counts, so the ratio is a pure capacity comparison — a
makespan denominator would flatter the 1-shard config, whose
queue-full sheds complete instantly and shrink its makespan.

The second half prices failover: a three-node replication group ships
WAL segments across a rotation boundary, loses its primary with
unshipped statements on disk, and promotes the most-caught-up
follower.  Reported: virtual promotion time (salvage replay at
``apply_cost`` per statement) and statement integrity (zero lost, zero
duplicated, against a reference database).

Everything runs on the shared ``VirtualClock``: deterministic under
the fixed seeds, so the CI gate is exact, not a flaky wall-clock race.
The gate (``--check``) asserts the headline shape: in-deadline QPS at
``GATE_SHARDS`` shards is at least ``MIN_QPS_SCALING``× the 1-shard
QPS (averaged over the workload seeds), and promotion lands inside
``FAILOVER_WINDOW`` virtual seconds with the database intact.

Standalone report:  PYTHONPATH=src python benchmarks/bench_ablation_sharding.py [--quick]
CI gate:            PYTHONPATH=src python benchmarks/bench_ablation_sharding.py --quick --check
"""

import os
import sys
import tempfile

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.federation import (
    FollowerNode,
    PrimaryNode,
    ReplicationGroup,
    sharded_federation,
)
from repro.serving import summarize, synthetic_workload
from repro.sources import VirtualClock

CAPACITY_PER_SHARD = 4
DEADLINE = 25.0
MEAN_SERVICE = 3.0
REQUESTS = 280
LOAD = 24.0
SHARD_COUNTS = (1, 2, 4, 8)
WORKLOAD_SEEDS = (9, 23, 41)
QUICK_SEEDS = (23, 41)

#: The CI gate: mean in-deadline QPS at GATE_SHARDS shards must be at
#: least this multiple of the 1-shard mean.  (Measured ~2.6-2.7x; the
#: sub-linear gap is the extent queries that scatter to every shard.)
MIN_QPS_SCALING = 2.5
GATE_SHARDS = 4

#: Promotion must land inside this many virtual seconds (the group's
#: promotion_window), salvage replay included.
FAILOVER_WINDOW = 5.0
REPLICATED_STATEMENTS = 40
UNSHIPPED_STATEMENTS = 10


def run_cell(shards, seed, requests=REQUESTS, load=LOAD):
    """Serve one (shard count, workload seed) cell; returns its row."""
    server, shard_map, accessions, __ = sharded_federation(
        shards, capacity=CAPACITY_PER_SHARD, deadline=DEADLINE)
    workload = synthetic_workload(
        accessions, count=requests, load_factor=load,
        capacity=CAPACITY_PER_SHARD, mean_service=MEAN_SERVICE,
        seed=seed, batch_size=1)
    window = max(request.arrival for request in workload) + DEADLINE
    stats = summarize(server.serve(workload), budget=DEADLINE)
    return {
        "shards": shards,
        "seed": seed,
        "offered": stats["offered"],
        "good": stats["good"],
        "qps": stats["good"] / window,
        "window": window,
        "p50": stats["p50"],
        "p95": stats["p95"],
        "shed": stats["shed"],
        "shed_by_reason": stats["shed_by_reason"],
        "ranges": shard_map.describe(),
    }


def measure(requests=REQUESTS, seeds=WORKLOAD_SEEDS):
    return [run_cell(shards, seed, requests)
            for shards in SHARD_COUNTS for seed in seeds]


def measure_failover(statements=REPLICATED_STATEMENTS,
                     unshipped=UNSHIPPED_STATEMENTS):
    """One failover drill; returns virtual timing + integrity facts."""
    def fresh():
        database = Database()
        database.execute(
            "CREATE TABLE events (id INTEGER PRIMARY KEY, note TEXT)")
        return database

    with tempfile.TemporaryDirectory() as workdir:
        timeline = VirtualClock()
        primary = PrimaryNode("alpha", os.path.join(workdir, "alpha"),
                              fresh(), timeline=timeline)
        followers = [
            FollowerNode(name, os.path.join(workdir, name), fresh(),
                         timeline=timeline)
            for name in ("bravo", "charlie")
        ]
        group = ReplicationGroup(primary, followers,
                                 promotion_window=FAILOVER_WINDOW)
        split = statements // 2
        for index in range(split):
            primary.execute("INSERT INTO events VALUES (?, ?)",
                            [index, f"n{index}"])
        group.sync()
        primary.rotate()
        for index in range(split, statements):
            primary.execute("INSERT INTO events VALUES (?, ?)",
                            [index, f"n{index}"])
        followers[0].catch_up(primary)
        for index in range(statements, statements + unshipped):
            # Never shipped: promotion must salvage these from disk.
            primary.execute("INSERT INTO events VALUES (?, ?)",
                            [index, f"n{index}"])
        group.fail_primary()
        promoted = group.promote()
        reference = fresh()
        for index in range(statements + unshipped):
            reference.execute("INSERT INTO events VALUES (?, ?)",
                              [index, f"n{index}"])
        return {
            "statements": statements + unshipped,
            "unshipped": unshipped,
            "promoted": promoted.name,
            "promotion_time": group.last_promotion,
            "window": FAILOVER_WINDOW,
            "intact": databases_equal(promoted.database, reference),
            "generation": promoted.wal.generation,
        }


def _gate(rows, failover):
    """The CI shape: capacity scales, failover is fast and lossless."""
    means = {}
    for shards in SHARD_COUNTS:
        cells = [row["qps"] for row in rows if row["shards"] == shards]
        if cells:
            means[shards] = sum(cells) / len(cells)
    scaling = means[GATE_SHARDS] / means[1]
    return {
        "qps_by_shards": means,
        "scaling": scaling,
        "scaling_floor": MIN_QPS_SCALING,
        "scaling_ok": scaling >= MIN_QPS_SCALING,
        "promotion_time": failover["promotion_time"],
        "failover_window": failover["window"],
        "failover_ok": (failover["intact"]
                        and failover["promotion_time"] is not None
                        and failover["promotion_time"]
                        <= failover["window"]),
    }


class TestA12Shape:
    """Cheap structural checks on a reduced workload."""

    def test_qps_scales_with_shards(self):
        rows = measure(requests=140, seeds=QUICK_SEEDS)
        failover = measure_failover()
        gate = _gate(rows, failover)
        assert gate["scaling"] > 1.5, gate

    def test_failover_is_fast_and_lossless(self):
        failover = measure_failover()
        assert failover["intact"]
        assert failover["promotion_time"] <= failover["window"]
        assert failover["promoted"] == "bravo"
        assert failover["generation"] >= 1

    def test_cells_are_deterministic(self):
        assert run_cell(4, 23, requests=60) == run_cell(4, 23, requests=60)

    def test_window_is_shard_count_independent(self):
        one = run_cell(1, 9, requests=60)
        four = run_cell(4, 9, requests=60)
        assert one["window"] == four["window"]


def report(requests=REQUESTS, seeds=WORKLOAD_SEEDS) -> dict:
    print(f"A12: sharded federation ablation ({requests} requests per "
          f"cell at {LOAD:.0f}x one shard's capacity, deadline "
          f"{DEADLINE}, seeds {list(seeds)}, virtual time)")
    print()
    rows = measure(requests, seeds)
    print(f"{'shards':>6} {'seed':>5} {'good':>5} {'shed':>5} "
          f"{'qps':>6} {'p95':>6}")
    print("-" * 40)
    for row in rows:
        print(f"{row['shards']:>6} {row['seed']:>5} {row['good']:>5} "
              f"{row['shed']:>5} {row['qps']:>6.2f} {row['p95']:>6.1f}")
    failover = measure_failover()
    gate = _gate(rows, failover)
    print(f"\nmean in-deadline QPS: " + ", ".join(
        f"{shards} shard{'s' if shards > 1 else ''} = {qps:.2f}"
        for shards, qps in gate["qps_by_shards"].items()))
    print(f"gate: {GATE_SHARDS}-shard scaling {gate['scaling']:.2f}x "
          f"(floor {MIN_QPS_SCALING}x)")
    print(f"failover: {failover['promoted']} promoted in "
          f"{failover['promotion_time']:.2f} virtual s (window "
          f"{failover['window']:.1f}), {failover['unshipped']} unshipped "
          f"statements salvaged, intact={failover['intact']}")
    return {
        "requests": requests,
        "capacity_per_shard": CAPACITY_PER_SHARD,
        "deadline": DEADLINE,
        "mean_service": MEAN_SERVICE,
        "load": LOAD,
        "seeds": list(seeds),
        "shard_counts": list(SHARD_COUNTS),
        "cells": rows,
        "failover": failover,
        "gate": gate,
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    quick = "--quick" in sys.argv
    payload = report(requests=140 if quick else REQUESTS,
                     seeds=QUICK_SEEDS if quick else WORKLOAD_SEEDS)
    if "--check" not in sys.argv:     # a gate compares, it writes nothing
        write_bench_json("ablation_sharding", payload)
    else:
        gate = payload["gate"]
        if not gate["scaling_ok"]:
            print(f"FAIL: {GATE_SHARDS}-shard QPS scaling "
                  f"{gate['scaling']:.2f}x under the "
                  f"{gate['scaling_floor']}x floor")
            sys.exit(1)
        if not gate["failover_ok"]:
            print(f"FAIL: failover took {gate['promotion_time']!r} "
                  f"virtual s (window {gate['failover_window']}) or "
                  f"lost statements")
            sys.exit(1)
        print("PASS: sharding scales in-deadline QPS, failover is "
              "fast and lossless")
    sys.exit(0)
