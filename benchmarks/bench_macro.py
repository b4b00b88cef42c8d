"""Experiment A14 — the day-in-the-life macro benchmark.

Every other benchmark in this directory measures one mechanism in
isolation.  This one measures whether the mechanisms *compose*: one
simulated day of multi-tenant, zipfian, diurnal traffic
(:mod:`repro.workload`) driven through the full stack — BiQL sessions,
the sharded serving tier with per-shard answer caches, scheduled
source outages, concurrent ETL churn, and a WAL-shipped warehouse
replica — on one shared virtual clock.

The headline numbers are the end-to-end story in one row: goodput
ratio, p50/p99 client latency, cache hit rate, the staleness bound's
worst excursion (outages make it grow; clean syncs reset it), the
replica's worst lag, the shed taxonomy, and whether the replica
converged bit-for-bit with the warehouse.

Everything is virtual-time and seeded, so the run is bit-reproducible:
two runs with one ``REPRO_TEST_SEED`` serialize to identical JSON, and
the CI gate (``--quick --check``) is an exact regression comparison
against the checked-in ``BENCH_macro.json``: with the reference's seed,
the quick headline must equal the checked-in ``quick_reference`` value
for value.  The tolerance bands (goodput floor, p99 ceiling, shed
drift) are reported beside it, so a failure says how far it moved.

Standalone report:  PYTHONPATH=src python benchmarks/bench_macro.py [--quick]
CI gate:            PYTHONPATH=src python benchmarks/bench_macro.py --quick --check
"""

import json
import os
import sys

from repro.workload import MacroSpec, run_macro

SEED_ENV = "REPRO_TEST_SEED"

#: Regression bands reported beside the same-seed identity check: they
#: say how far a changed headline moved, but only an identical one passes
#: (a reviewed behavior change refreshes the checked-in reference).
GOODPUT_FLOOR_FACTOR = 0.90      # goodput may not drop >10% below ref
P99_CEILING_FACTOR = 1.50        # p99 may not grow >50% over ref
P99_CEILING_SLACK = 1.0          # …plus one virtual second of slack
SHED_RATE_TOLERANCE = 0.05       # absolute drift allowed in shed rate

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_macro.json")


def harness_seed() -> int:
    try:
        return int(os.environ.get(SEED_ENV, "0"))
    except ValueError:
        return 0


def measure(mode: str, seed: int) -> dict:
    spec = (MacroSpec.quick(seed) if mode == "quick"
            else MacroSpec.full(seed))
    return run_macro(spec)


def _reference_of(payload: dict) -> dict:
    """The gate-relevant slice of a quick payload's headline."""
    headline = payload["headline"]
    return {
        "goodput_ratio": headline["goodput_ratio"],
        "p99_latency": headline["p99_latency"],
        "shed_rate": headline["shed_rate"],
        "cache_hit_rate": headline["cache_hit_rate"],
    }


def structural_gate(payload: dict) -> dict:
    """Seed-independent sanity: the day must tell a coherent story."""
    headline = payload["headline"]
    phases = payload["phases"]
    checks = {
        "replica_converged": headline["replica_converged"],
        "served_traffic": payload["overall"]["served"] > 0,
        "cache_working": headline["cache_hit_rate"] > 0.0,
        "staleness_observed": headline["staleness_max"] > 0.0,
        "peak_is_peak": (phases["peak"]["offered"]
                         > phases["night"]["offered"]),
    }
    checks["ok"] = all(checks.values())
    return checks


def regression_gate(reference: dict, fresh: dict) -> dict:
    """Same-seed comparison against the checked-in reference: the
    headline must be identical; the bands say how far it moved."""
    goodput_floor = reference["goodput_ratio"] * GOODPUT_FLOOR_FACTOR
    p99_ceiling = (reference["p99_latency"] * P99_CEILING_FACTOR
                   + P99_CEILING_SLACK)
    shed_drift = abs(fresh["shed_rate"] - reference["shed_rate"])
    return {
        "goodput": fresh["goodput_ratio"],
        "goodput_floor": round(goodput_floor, 6),
        "goodput_ok": fresh["goodput_ratio"] >= goodput_floor,
        "p99": fresh["p99_latency"],
        "p99_ceiling": round(p99_ceiling, 6),
        "p99_ok": fresh["p99_latency"] <= p99_ceiling,
        "shed_rate": fresh["shed_rate"],
        "shed_drift": round(shed_drift, 6),
        "shed_ok": shed_drift <= SHED_RATE_TOLERANCE,
        "changed": sorted(name for name in reference
                          if fresh.get(name) != reference[name]),
        "ok": fresh == reference,
    }


def load_reference() -> "dict | None":
    """The checked-in BENCH_macro.json, read *before* we overwrite it."""
    try:
        with open(BENCH_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class TestA14Shape:
    """Cheap structural checks (the tier-1 soak lives in tests/workload)."""

    def test_quick_day_is_coherent(self):
        payload = measure("quick", seed=harness_seed())
        assert structural_gate(payload)["ok"]

    def test_quick_day_is_bit_reproducible(self):
        seed = harness_seed()
        first = json.dumps(measure("quick", seed), sort_keys=True)
        second = json.dumps(measure("quick", seed), sort_keys=True)
        assert first == second


def _print_headline(label: str, payload: dict) -> None:
    headline = payload["headline"]
    print(f"  {label:<6} goodput {headline['goodput_ratio']:.3f}  "
          f"p50 {headline['p50_latency']:.2f}  "
          f"p99 {headline['p99_latency']:.2f}  "
          f"shed {headline['shed_rate']:.3f}  "
          f"cache {headline['cache_hit_rate']:.3f}  "
          f"staleness≤{headline['staleness_max']:.1f}  "
          f"lag≤{headline['replica_lag_max']:.1f}  "
          f"converged={headline['replica_converged']}")


def report(quick: bool, seed: int) -> dict:
    mode = "quick" if quick else "full"
    print(f"A14: day-in-the-life macro workload ({mode} mode, "
          f"seed {seed}, virtual time)")
    print()
    payload = {"mode": mode, "seed": seed}
    quick_payload = measure("quick", seed)
    payload["quick"] = quick_payload
    payload["quick_reference"] = _reference_of(quick_payload)
    _print_headline("quick", quick_payload)
    if not quick:
        full_payload = measure("full", seed)
        payload["full"] = full_payload
        _print_headline("full", full_payload)
        print()
        print(f"  {'phase':<10} {'offered':>7} {'good':>6} "
              f"{'goodput':>8} {'shed':>6} {'p99':>7}")
        for name, stats in full_payload["phases"].items():
            print(f"  {name:<10} {stats['offered']:>7} "
                  f"{stats['good']:>6} {stats['goodput_ratio']:>8.3f} "
                  f"{stats['shed']:>6} {stats['p99']:>7.2f}")
    payload["structural"] = structural_gate(quick_payload)
    return payload


if __name__ == "__main__":
    from conftest import write_bench_json

    quick = "--quick" in sys.argv
    seed = harness_seed()
    reference = load_reference()
    payload = report(quick, seed)
    if "--check" not in sys.argv:     # a gate compares, it writes nothing
        write_bench_json("macro", payload)
    else:
        print()
        structural = payload["structural"]
        if not structural["ok"]:
            failed = [name for name, ok in structural.items() if not ok]
            print(f"FAIL: structural checks failed: {failed}")
            sys.exit(1)
        if reference is None:
            print("NOTE: no checked-in BENCH_macro.json to compare "
                  "against; structural checks only")
            sys.exit(0)
        if reference.get("seed") != seed:
            print(f"NOTE: reference was recorded with seed "
                  f"{reference.get('seed')}, this run used {seed}; "
                  f"same-seed regression comparison skipped")
            sys.exit(0)
        gate = regression_gate(reference["quick_reference"],
                               payload["quick_reference"])
        if not gate["ok"]:
            print(f"FAIL: seeded regression against BENCH_macro.json: "
                  f"goodput {gate['goodput']:.3f} "
                  f"(floor {gate['goodput_floor']:.3f}, "
                  f"ok={gate['goodput_ok']}), "
                  f"p99 {gate['p99']:.2f} "
                  f"(ceiling {gate['p99_ceiling']:.2f}, "
                  f"ok={gate['p99_ok']}), "
                  f"shed drift {gate['shed_drift']:.3f} "
                  f"(tolerance {SHED_RATE_TOLERANCE}, "
                  f"ok={gate['shed_ok']}); quick_reference differs "
                  f"in {gate['changed'] or 'its keys'}")
            sys.exit(1)
        print(f"PASS: quick_reference identical to BENCH_macro.json "
              f"(goodput {gate['goodput']:.3f}, p99 {gate['p99']:.2f}, "
              f"shed {gate['shed_rate']:.3f})")
    sys.exit(0)
