"""Experiment A10 — what does observability cost the mediation path?

The observability PR's contract is "near-free when disabled": every
instrumentation site in the hot path costs one module-global read plus
a ``None`` check while no tracer is installed.  This ablation prices
that claim against the A9 mediation workload (4 faultable sources on a
shared ``VirtualClock``, repeated ``find_genes`` fan-outs) under five
configurations:

- **disabled** — no tracer installed (the shipping default; baseline);
- **sampled 0%** — a tracer installed but sampling nothing, so every
  root decision runs and every span call still hits the no-op path;
- **sampled 1%** — production-style head sampling;
- **sampled 100%** — every query fully traced, spans buffered;
- **metrics only** — no tracer, but the metrics registry installed so
  every ``bump()`` publishes counters.

Timings are real ``time.perf_counter`` milliseconds.  Modes are
measured *interleaved* — each repeat visits every mode once, and the
per-mode figure is the min across repeats — so slow phases of the box
(frequency drift, background load) hit all modes alike instead of
biasing whichever mode ran during them.  The CI smoke gate
(``--check``) fails when the *sampled 0%* configuration costs more
than 5% over disabled — that is the overhead an operator pays for
merely shipping the instrumentation hooks.

Standalone report:  python benchmarks/bench_ablation_obs.py [--quick]
CI gate:            python benchmarks/bench_ablation_obs.py --quick --check
"""

import sys
import time

from repro import obs
from repro.mediator import Mediator, RetryPolicy
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)

UNIVERSE_SEED = 1302
UNIVERSE_SIZE = 60
SOURCE_COUNT = 4
QUERIES = 20
REPEATS = 5

#: Modelled round-trip costs (virtual ms), as in A9.
SNAPSHOT_RTT = 150.0
QUERY_RTT = 2.0

#: The CI smoke gate: sampled-0% must stay within this of disabled.
MAX_DISABLED_OVERHEAD = 0.05

_SOURCE_BUILDERS = (GenBankRepository, EmblRepository, AceRepository,
                    SwissProtRepository)


def _build_mediator():
    universe = Universe(seed=UNIVERSE_SEED, size=UNIVERSE_SIZE)
    timeline = VirtualClock()
    proxies = []
    for index, builder in enumerate(_SOURCE_BUILDERS[:SOURCE_COUNT]):
        proxy = FaultyRepository(builder(universe), timeline,
                                 seed=31 + index)
        proxy.add_latency(QUERY_RTT if proxy.capabilities.queryable
                          else SNAPSHOT_RTT)
        proxies.append(proxy)
    mediator = Mediator(
        proxies,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=20.0,
                                 jitter=0.0),
        timeline=timeline,
    )
    return timeline, mediator


MODES = ("disabled", "sampled 0%", "sampled 1%", "sampled 100%",
         "metrics only")


def _configure(mode, timeline):
    """Install the observability configuration for *mode*."""
    obs.disable()
    obs.disable_metrics()
    if mode == "sampled 0%":
        obs.enable(sample_rate=0.0, clock=timeline)
    elif mode == "sampled 1%":
        obs.enable(sample_rate=0.01, clock=timeline)
    elif mode == "sampled 100%":
        obs.enable(sample_rate=1.0, clock=timeline,
                   max_traces=QUERIES + 1)
    elif mode == "metrics only":
        obs.enable_metrics()


def run_mode(mode, queries=QUERIES, repeats=REPEATS):
    """Min-of-*repeats* per-query cost of the workload under *mode*."""
    best = float("inf")
    traces = spans = 0
    try:
        for __ in range(repeats):
            timeline, mediator = _build_mediator()
            _configure(mode, timeline)
            start = time.perf_counter()
            for __ in range(queries):
                mediator.find_genes()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            tracer = obs.get_tracer()
            if tracer is not None:
                traces = len(tracer.traces)
                spans = sum(len(trace)
                            for trace in tracer.traces.values())
    finally:
        obs.disable()
        obs.disable_metrics()
    return {
        "mode": mode,
        "ms_per_query": best / queries * 1000,
        "traces": traces,
        "spans": spans,
    }


def measure_modes(queries=QUERIES, repeats=REPEATS):
    """Min-of-*repeats* per mode, modes interleaved within each repeat."""
    best = {mode: float("inf") for mode in MODES}
    counts = {mode: (0, 0) for mode in MODES}
    try:
        for round_index in range(repeats + 1):
            for mode in MODES:
                timeline, mediator = _build_mediator()
                _configure(mode, timeline)
                start = time.perf_counter()
                for __ in range(queries):
                    mediator.find_genes()
                elapsed = time.perf_counter() - start
                tracer = obs.get_tracer()
                if tracer is not None:
                    counts[mode] = (
                        len(tracer.traces),
                        sum(len(trace)
                            for trace in tracer.traces.values()),
                    )
                obs.disable()
                obs.disable_metrics()
                if round_index == 0:
                    continue          # round 0 is warm-up, not recorded
                best[mode] = min(best[mode], elapsed)
    finally:
        obs.disable()
        obs.disable_metrics()
    return [
        {
            "mode": mode,
            "ms_per_query": best[mode] / queries * 1000,
            "traces": counts[mode][0],
            "spans": counts[mode][1],
        }
        for mode in MODES
    ]


def noop_span_ns(calls=200_000):
    """Cost of one disabled ``obs.span`` call (the hot-path tax)."""
    obs.disable()
    start = time.perf_counter()
    for __ in range(calls):
        obs.span("a10.noop")
    return (time.perf_counter() - start) / calls * 1e9


class TestA10Shape:
    """Cheap structural checks (the timings themselves are reported)."""

    def test_disabled_workload_produces_no_traces(self):
        result = run_mode("disabled", queries=2, repeats=1)
        assert result["traces"] == 0 and result["spans"] == 0

    def test_sampled_0_produces_no_traces(self):
        result = run_mode("sampled 0%", queries=2, repeats=1)
        assert result["traces"] == 0 and result["spans"] == 0

    def test_sampled_100_traces_every_query(self):
        result = run_mode("sampled 100%", queries=3, repeats=1)
        assert result["traces"] == 3
        # Each query: find_genes root, fan_out, fusion, and one
        # source.attempt per source.
        assert result["spans"] == 3 * (3 + SOURCE_COUNT)

    def test_globals_restored_after_a_run(self):
        run_mode("sampled 100%", queries=1, repeats=1)
        assert not obs.enabled()
        assert obs.get_registry() is None


def report(queries=QUERIES, repeats=REPEATS) -> dict:
    print(f"A10: observability overhead on the A9 mediation workload "
          f"({SOURCE_COUNT} sources, {queries} queries, "
          f"min of {repeats} interleaved rounds)")
    print()
    results = measure_modes(queries, repeats)
    baseline = results[0]["ms_per_query"]
    print(f"{'configuration':<16} {'ms/query':>9} {'overhead':>9} "
          f"{'traces':>7} {'spans':>7}")
    print("-" * 53)
    for result in results:
        result["overhead"] = result["ms_per_query"] / baseline - 1.0
        print(f"{result['mode']:<16} {result['ms_per_query']:>9.3f} "
              f"{result['overhead']:>8.1%} {result['traces']:>7} "
              f"{result['spans']:>7}")
    tax_ns = noop_span_ns()
    print(f"\ndisabled obs.span() call: {tax_ns:.0f} ns")
    gate = next(r for r in results if r["mode"] == "sampled 0%")
    print(f"smoke gate: sampled-0% overhead {gate['overhead']:.1%} "
          f"(budget {MAX_DISABLED_OVERHEAD:.0%})")
    return {
        "queries": queries,
        "repeats": repeats,
        "sources": SOURCE_COUNT,
        "modes": results,
        "noop_span_ns": tax_ns,
        "gate_overhead": gate["overhead"],
        "gate_budget": MAX_DISABLED_OVERHEAD,
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    quick = "--quick" in sys.argv
    payload = report(queries=6 if quick else QUERIES,
                     repeats=3 if quick else REPEATS)
    if "--check" not in sys.argv:     # a gate compares, it writes nothing
        write_bench_json("obs", payload)
    else:
        if payload["gate_overhead"] > MAX_DISABLED_OVERHEAD:
            print(f"FAIL: instrumentation hooks cost "
                  f"{payload['gate_overhead']:.1%} while sampling "
                  f"nothing (budget {MAX_DISABLED_OVERHEAD:.0%})")
            sys.exit(1)
        print("PASS: disabled-path overhead within budget")
    sys.exit(0)
