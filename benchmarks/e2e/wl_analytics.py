"""``analytics_fit`` and ``analytics_outofcore``: one columnar table,
one op list, two memory budgets.

``Database(layout="column", page_rows=256)`` holding sequencing reads
``(id, k, gc, org, seq DNA)`` clustered by ``k``.  ``analytics_fit``
leaves ``memory_budget=None`` (what a user gets): vector, kernel and
zone-map work with no faults, evictions or spill.  ``analytics_outofcore``
runs the identical table and op list under a budget of a quarter of the
encoded size: page faults, eviction, spilling sort and group.  A page
cache or spill change must move the second and leave the first alone; an
executor change must move both.

The oracle is the repo's own law: columnar ≡ the same SQL on a
``layout="row"`` twin.
"""

from __future__ import annotations

from repro.adapter import install_genomics
from repro.db import Database
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sources.universe import ORGANISMS

from harness import ORACLE_CHECKS_PER_CLASS, TracedPass, Workload
from opgen import DATA_SEED, Op, canon, random_dna, rng_for, stratified
from stages import (
    SQL_STAGES,
    planner_for,
    serializer_metrics,
    staged_sql,
    statement_metrics,
)

ROWS = 6144
QUICK_ROWS = 1024
PAGE_ROWS = 256
READ_BP = 60
ROUND_SIZE = 40

#: sort is 7.5 % so the pooled p95 sits inside its body; with range at
#: 42.5 % the p50 sits inside ``agg``.
SHARES = {"range": 42.5, "agg": 15, "kernel_agg": 15, "group": 10,
          "motif_count": 10, "sort": 7.5}

SQL = {
    "range": "SELECT id, gc FROM reads WHERE k BETWEEN ? AND ?",
    "agg": "SELECT count(*), avg(gc), min(k), max(k) FROM reads",
    "kernel_agg": "SELECT count(*), avg(gc_content(seq)) FROM reads",
    "group": "SELECT org, count(*), avg(gc) FROM reads GROUP BY org",
    "motif_count": "SELECT count(*) FROM reads WHERE contains(seq, ?)",
    "sort": "SELECT id, k FROM reads ORDER BY gc DESC, id",
}


def make_reads(count: int) -> list[tuple]:
    """*count* reads, ``k`` ascending so sealed pages carry disjoint
    zone maps (the situation zone maps exist for)."""
    rng = rng_for(DATA_SEED, "reads")
    rows = []
    for index in range(count):
        seq = random_dna(rng, READ_BP)
        gc = (seq.count("G") + seq.count("C")) / READ_BP
        rows.append((index, index // 8, gc, rng.choice(ORGANISMS), seq))
    return rows


def load_reads(rows, layout: str, memory_budget=None) -> Database:
    database = Database(layout=layout, memory_budget=memory_budget,
                        page_rows=PAGE_ROWS)
    install_genomics(database)
    database.execute("CREATE TABLE reads (id INTEGER, k INTEGER, gc REAL, "
                     "org TEXT, seq DNA)")
    database.executemany("INSERT INTO reads VALUES (?, ?, ?, ?, dna(?))",
                         rows)
    return database


class Analytics(Workload):
    stages = SQL_STAGES
    budget_share: "float | None" = None

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        super().__init__(seed, quick, workdir)
        self.rows = make_reads(QUICK_ROWS if quick else ROWS)
        self.encoded_bytes = 0
        self.budget: "int | None" = None
        if self.budget_share is not None:
            self.budget = max(1, int(self.measure_encoded()
                                     * self.budget_share))

    def measure_encoded(self) -> int:
        """Encoded size of the table's pages, read from the
        ``columnar_resident_peak`` gauge of an unbudgeted load."""
        if not self.encoded_bytes:
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                load_reads(self.rows, "column").columnar.close()
            finally:
                set_registry(previous)
            self.encoded_bytes = int(
                registry.snapshot()["columnar_resident_peak"])
        return self.encoded_bytes

    def build(self) -> None:
        self.database = load_reads(self.rows, "column", self.budget)

    def close(self) -> None:
        self.database.columnar.close()

    def prepare(self) -> None:
        self.twin = load_reads(self.rows, "row")
        rng = rng_for(self.seed, "analytics")
        size = ROUND_SIZE // 4 if self.quick else ROUND_SIZE
        self._ops = [self.make_op(cls, rng)
                     for cls in stratified(rng, SHARES, size)]

    def make_op(self, cls: str, rng) -> Op:
        if cls == "range":
            low = rng.randrange(self.rows[-1][1] - 3)
            parameters = (low, low + 3)
        elif cls == "motif_count":
            parameters = (random_dna(rng, 5),)
        else:
            parameters = ()
        return Op(cls, (SQL[cls], parameters))

    def round_ops(self, index: int) -> list[Op]:
        return self._ops

    def oracle_ops(self) -> list[Op]:
        rng = rng_for(self.seed, "analytics", "oracle")
        return [self.make_op(cls, rng) for cls in self.oracle_classes
                for __ in range(ORACLE_CHECKS_PER_CLASS)]

    def run(self, op: Op) -> list[tuple]:
        return self.database.execute(*op.payload).rows

    def canon(self, op: Op, answer: list[tuple]) -> str:
        # Only ORDER BY fixes the row order of an answer.
        return canon(answer if op.cls == "sort"
                     else sorted(answer, key=canon))

    def oracle(self, op: Op, answer: list[tuple]) -> bool:
        return self.canon(op, answer) == self.canon(
            op, self.twin.execute(*op.payload).rows)

    def begin_trace(self, rec) -> None:
        self.planner = planner_for(self.database)
        self.registry = MetricsRegistry()
        self._previous_registry = set_registry(self.registry)

    def end_trace(self, rec) -> None:
        set_registry(self._previous_registry)

    def run_traced(self, op: Op, rec) -> list[tuple]:
        return staged_sql(rec, self.planner, *op.payload)

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        values = statement_metrics(trace)
        counters = self.registry.snapshot()
        ops = len(trace.batch.ops)
        read = counters.get("columnar_pages_read", 0.0)
        skipped = counters.get("columnar_pages_skipped", 0.0)
        raw = sum(16 + 8 + len(org) + len(seq)
                  for __, ___, ____, org, seq in self.rows)
        values.update({
            "db.columnar.pages_read_per_op": read / ops,
            "db.columnar.zone_skip_ratio":
                skipped / (read + skipped) if read + skipped else 0.0,
            "db.columnar.page_fault_ratio":
                counters.get("columnar_page_faults", 0.0) / read
                if read else 0.0,
            "db.columnar.pages_evicted_per_op":
                counters.get("columnar_pages_evicted", 0.0) / ops,
            "db.columnar.spill_bytes_per_op":
                counters.get("executor_spill_bytes", 0.0) / ops,
            "db.columnar.spill_runs_per_op":
                counters.get("executor_spill_runs", 0.0) / ops,
            "db.columnar.page_bytes_per_raw_byte":
                self.measure_encoded() / raw,
        })
        if self.budget is not None:
            values["db.columnar.resident_peak_frac"] = (
                counters.get("columnar_resident_peak", 0.0) / self.budget)
        values.update(serializer_metrics(
            self.twin, [row[0] for row in self.twin.execute(
                "SELECT seq FROM reads WHERE k < 64").rows]))
        return values


class AnalyticsFit(Analytics):
    name = "analytics_fit"


class AnalyticsOutOfCore(Analytics):
    name = "analytics_outofcore"
    budget_share = 0.25

    def finish(self) -> list[str]:
        cache = self.database.columnar.cache
        if cache.peak_resident_bytes > self.budget:
            return [f"resident peak {cache.peak_resident_bytes} B exceeds "
                    f"the {self.budget} B budget"]
        return []
