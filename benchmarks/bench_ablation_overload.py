"""Experiment A11 — what does overload protection buy the federation?

The serving PR's claim: under offered load beyond capacity, an
admission-controlled federation *keeps* its goodput (in-deadline
answers per virtual second) by shedding early and cheaply, while an
unprotected one collapses — every request is accepted, queues grow
without bound, and almost nothing finishes inside its deadline.

This ablation serves the calibrated A11 workload
(:func:`repro.serving.overload_federation` — four faultable sources
with a heavy-tailed latency model, clean-replica hedging) at offered
loads of 1× to 8× the federation's serving capacity, under three
configurations:

- **protected** — the full serving stack: admission control with a
  deadline-aware estimator, per-source retry budgets, AIMD
  concurrency limits, p95-delay hedging, and the brownout ladder;
- **unprotected** — ``ServingPolicy.unprotected()``: every request
  admitted, no budgets, no limits, no hedging, no brownout;
- **no brownout** — protected minus the brownout ladder, to price the
  service-level degradation separately (measured at 4× only).

Everything runs on the shared ``VirtualClock``: the numbers are
modelled virtual time, deterministic under the fixed seed, so the CI
gate is exact, not a flaky wall-clock race.  The gate (``--check``)
asserts the headline shape: at 4× offered load the protected
federation keeps at least ``MIN_GOODPUT_RETENTION`` of its 1× goodput,
while the unprotected one's p99 latency blows past the deadline.

Standalone report:  PYTHONPATH=src python benchmarks/bench_ablation_overload.py [--quick]
CI gate:            PYTHONPATH=src python benchmarks/bench_ablation_overload.py --quick --check
"""

import sys

from repro.serving import (
    ServingPolicy,
    overload_federation,
    summarize,
    synthetic_workload,
)

CAPACITY = 4
DEADLINE = 25.0
MEAN_SERVICE = 3.0
WORKLOAD_SEED = 3
REQUESTS = 120
LOADS = (1.0, 2.0, 4.0, 8.0)

#: The CI gate: protected goodput at 4x must retain this share of the
#: protected goodput at 1x.  (Measured retention is ~1.5x — overload
#: *raises* goodput because shedding concentrates capacity — so 0.7
#: is a collapse detector, not a tight bound.)
MIN_GOODPUT_RETENTION = 0.7
GATE_LOAD = 4.0


def _policy(mode):
    if mode == "unprotected":
        return ServingPolicy.unprotected(capacity=CAPACITY,
                                         deadline=DEADLINE)
    if mode == "no brownout":
        return ServingPolicy(capacity=CAPACITY, deadline=DEADLINE,
                             brownout=False)
    return None                       # protected: the calibrated default


def run_cell(mode, load, requests=REQUESTS):
    """Serve one (configuration, load) cell; returns its summary row."""
    server, mediator, __, accessions = overload_federation(
        policy=_policy(mode))
    workload = synthetic_workload(
        accessions, count=requests, load_factor=load,
        capacity=CAPACITY, mean_service=MEAN_SERVICE, seed=WORKLOAD_SEED)
    stats = summarize(server.serve(workload), budget=DEADLINE)
    return {
        "mode": mode,
        "load": load,
        "offered": stats["offered"],
        "good": stats["good"],
        "goodput": stats["good"] / stats["makespan"],
        "p50": stats["p50"],
        "p99": stats["p99"],
        "shed": stats["shed"],
        "shed_by_reason": stats["shed_by_reason"],
        "makespan": stats["makespan"],
        "hedges_issued": mediator.cost.hedges_issued,
        "hedges_won": mediator.cost.hedges_won,
        "retry_budget_denials": mediator.cost.retry_budget_denials,
        "brownout_transitions": (len(server.brownout.transitions)
                                 if server.brownout is not None else 0),
    }


def measure(requests=REQUESTS):
    rows = []
    for load in LOADS:
        rows.append(run_cell("protected", load, requests))
        rows.append(run_cell("unprotected", load, requests))
    rows.append(run_cell("no brownout", GATE_LOAD, requests))
    return rows


def _gate(rows):
    """The CI shape: protection holds at 4x, collapse is real."""
    by = {(row["mode"], row["load"]): row for row in rows}
    protected_base = by[("protected", 1.0)]["goodput"]
    protected_peak = by[("protected", GATE_LOAD)]["goodput"]
    unprotected_peak = by[("unprotected", GATE_LOAD)]
    return {
        "retention": protected_peak / protected_base,
        "retention_floor": MIN_GOODPUT_RETENTION,
        "retention_ok": (protected_peak
                         >= MIN_GOODPUT_RETENTION * protected_base),
        "unprotected_p99": unprotected_peak["p99"],
        "collapse_ok": unprotected_peak["p99"] > DEADLINE,
    }


class TestA11Shape:
    """Cheap structural checks on a reduced workload."""

    def test_protected_goodput_survives_overload(self):
        rows = measure(requests=60)
        gate = _gate(rows)
        assert gate["retention_ok"], gate
        assert gate["collapse_ok"], gate

    def test_unprotected_never_sheds(self):
        row = run_cell("unprotected", 4.0, requests=40)
        assert row["shed"] == 0
        assert row["shed_by_reason"] == {}

    def test_protected_sheds_for_honest_reasons(self):
        row = run_cell("protected", 8.0, requests=60)
        assert row["shed"] > 0
        assert set(row["shed_by_reason"]) <= {"queue_full", "deadline",
                                              "brownout"}

    def test_cells_are_deterministic(self):
        assert run_cell("protected", 4.0, requests=40) == \
            run_cell("protected", 4.0, requests=40)


def report(requests=REQUESTS) -> dict:
    print(f"A11: overload protection ablation ({requests} requests per "
          f"cell, deadline {DEADLINE}, capacity {CAPACITY}, "
          f"virtual time)")
    print()
    rows = measure(requests)
    print(f"{'configuration':<14} {'load':>5} {'good/s':>7} {'good':>5} "
          f"{'p50':>6} {'p99':>6} {'shed':>5}  shed reasons")
    print("-" * 76)
    for row in rows:
        reasons = ", ".join(f"{reason}={count}" for reason, count
                            in sorted(row["shed_by_reason"].items())) or "-"
        print(f"{row['mode']:<14} {row['load']:>4.0f}x "
              f"{row['goodput']:>7.2f} {row['good']:>5} "
              f"{row['p50']:>6.1f} {row['p99']:>6.1f} "
              f"{row['shed']:>5}  {reasons}")
    gate = _gate(rows)
    print(f"\ngate: protected {GATE_LOAD:.0f}x goodput retention "
          f"{gate['retention']:.2f} (floor {MIN_GOODPUT_RETENTION}); "
          f"unprotected {GATE_LOAD:.0f}x p99 "
          f"{gate['unprotected_p99']:.1f} vs deadline {DEADLINE}")
    return {
        "requests": requests,
        "capacity": CAPACITY,
        "deadline": DEADLINE,
        "mean_service": MEAN_SERVICE,
        "seed": WORKLOAD_SEED,
        "loads": list(LOADS),
        "cells": rows,
        "gate": gate,
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    quick = "--quick" in sys.argv
    payload = report(requests=60 if quick else REQUESTS)
    if "--check" not in sys.argv:     # a gate compares, it writes nothing
        write_bench_json("ablation_overload", payload)
    else:
        gate = payload["gate"]
        if not gate["retention_ok"]:
            print(f"FAIL: protected goodput retention "
                  f"{gate['retention']:.2f} under the "
                  f"{gate['retention_floor']} floor")
            sys.exit(1)
        if not gate["collapse_ok"]:
            print("FAIL: unprotected serving did not collapse — the "
                  "ablation is not measuring overload")
            sys.exit(1)
        print("PASS: protection holds at overload, collapse is real")
    sys.exit(0)
