"""The day-in-the-life macro workload (generator + full-stack simulator).

:func:`~repro.workload.generator.day_in_the_life` draws one simulated
day of multi-tenant, zipfian, diurnal traffic;
:func:`~repro.workload.simulator.run_macro` drives it through the
whole stack — BiQL sessions, the sharded serving tier, per-shard
answer caches, ETL churn, and a WAL-shipped replica — as a schedule of
the source driver, and reports the end-to-end numbers CI gates on
(``benchmarks/bench_macro.py``).
"""

from repro.workload.generator import (
    DEFAULT_DAY,
    DiurnalPhase,
    EpochTraffic,
    MacroWorkload,
    Tenant,
    ZipfSampler,
    day_in_the_life,
)
from repro.workload.simulator import (
    MacroSpec,
    build_macro_federation,
    columnar_analytics,
    run_macro,
)

__all__ = [
    "DEFAULT_DAY",
    "DiurnalPhase",
    "EpochTraffic",
    "MacroWorkload",
    "Tenant",
    "ZipfSampler",
    "day_in_the_life",
    "MacroSpec",
    "build_macro_federation",
    "columnar_analytics",
    "run_macro",
]
