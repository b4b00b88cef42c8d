"""``etl_durable``: writes beside reads, with durability verified.

A warehouse over five sources with its write-ahead log attached
**before** ``initial_load`` under the default flush policy
(``flush_every_n=1, fsync=False`` — the same on both sides of any
comparison) and a ``FollowerNode`` replica fed by WAL shipments.  One
cycle: every source ``advance(2)``\\ s (untimed), then 1 ``refresh``,
1 ``ship`` (flush → ``disk_shipments`` → ``apply_shipment``), 8 BiQL
reads on the primary and 2 point reads on the follower; the middle
cycle of each round ends with a ``checkpoint`` (image + WAL rotation) —
the periodic spike a median hides.  (Mid-round, so the log always holds
half a round of statements when the run ends and recovery has work.)

The run ends (untimed, but checked) with crash recovery from a copy of
only the bytes the log had flushed: ``recover(image, wal)`` ≡ primary ≡
follower by ``databases_equal``.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter

from repro.adapter import install_genomics
from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.etl.monitors import choose_monitor
from repro.etl.wrappers import wrapper_for
from repro.errors import ReproError
from repro.federation.replication import FollowerNode, disk_shipments
from repro.lang.biql import BiqlSession
from repro.obs import trace as obs_trace
from repro.obs.export import InMemorySink
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sources import Universe, VirtualClock
from repro.warehouse import UnifyingDatabase

from harness import ORACLE_CHECKS_PER_CLASS, TracedPass, Workload
from opgen import DATA_SEED, Op, Zipf, canon, rng_for, stratified
from stages import (
    BIQL_STAGES,
    SQL_STAGES,
    planner_for,
    serializer_metrics,
    staged_biql,
    statement_metrics,
)
from wl_biql import (
    FIVE_SOURCES,
    read_expected,
    read_text,
    table_rows,
    unordered,
)

SIZE = 150
QUICK_SIZE = 40
CYCLES_PER_ROUND = 10
QUICK_CYCLES_PER_ROUND = 2
CHURN_STEPS = 2
PRIMARY_READS = 8
FOLLOWER_READS = 2
READ_SHARES = {"point": 50, "count": 25, "organism": 25}
WAL_NAME = "warehouse.jsonl"
IMAGE_NAME = "image.json"
#: Genomic values kept from the WAL sink for the serializer replay.
SERIALIZER_SAMPLE = 2000


class EtlDurable(Workload):
    name = "etl_durable"
    stationary = False
    stages = (("warehouse.refresh", "federation.replication.ship_apply",
               "db.storage.checkpoint") + BIQL_STAGES + SQL_STAGES)
    #: Writes are checked once, at the end: recovered ≡ primary ≡
    #: follower (:meth:`finish`).
    oracle_classes = ("read", "follower_read")

    def build(self) -> None:
        universe = Universe(seed=DATA_SEED,
                            size=QUICK_SIZE if self.quick else SIZE)
        self.universe = universe
        self.sources = [source(universe) for source in FIVE_SOURCES]
        # Same-seed twins advanced in lockstep: the traced pass polls
        # *their* monitors to see what a poll costs outside refresh.
        self.twins = [source(universe) for source in FIVE_SOURCES]
        self.directory = os.path.join(
            self.workdir, f"etl-{len(os.listdir(self.workdir))}")
        os.makedirs(self.directory)
        self.image_path = os.path.join(self.directory, IMAGE_NAME)
        self.warehouse = UnifyingDatabase(self.sources)
        self.wal = self.warehouse.attach_wal(
            os.path.join(self.directory, WAL_NAME))
        start = perf_counter()
        report = self.warehouse.initial_load()
        self.build_metrics = {
            "warehouse.initial_load.records_per_s":
                report.deltas_processed / (perf_counter() - start)}
        shell = UnifyingDatabase([])       # schema-only twin
        self.follower = FollowerNode(
            "replica", os.path.join(self.directory, "replica"), shell.db,
            timeline=VirtualClock())
        self.shipped_bytes = 0
        self.ship()
        self.primary = BiqlSession(self.warehouse)
        self.replica = BiqlSession(shell)
        self.recovery = None
        self._rounds: dict[int, list[Op]] = {}

    def close(self) -> None:
        self.wal.close()

    def prepare(self) -> None:
        self._accessions = Zipf(
            [spec.accession for spec in self.universe.genes],
            rng_for(self.seed, self.name, "keys"))

    # -- the op stream ----------------------------------------------------

    def _cycle(self, rng, checkpoint: bool) -> list[Op]:
        ops = [Op("_churn"), Op("refresh"), Op("ship")]
        for kind in stratified(rng, READ_SHARES, PRIMARY_READS):
            ops.append(Op("read", read_text(kind, rng, self._accessions)
                          + (kind,)))
        for __ in range(FOLLOWER_READS):
            ops.append(Op("follower_read",
                          read_text("point", rng, self._accessions)
                          + ("point",)))
        if checkpoint:
            ops.append(Op("checkpoint"))
        return ops

    def warmup_ops(self) -> list[Op]:
        return self._cycle(rng_for(self.seed, self.name, "warm-up"), False)

    def oracle_ops(self) -> list[Op]:
        rng = rng_for(self.seed, self.name, "oracle")
        cycles = -(-ORACLE_CHECKS_PER_CLASS // FOLLOWER_READS)
        return [op for __ in range(cycles)
                for op in self._cycle(rng, False)]

    def round_ops(self, index: int) -> list[Op]:
        if index not in self._rounds:
            rng = rng_for(self.seed, self.name, f"round-{index}")
            cycles = (QUICK_CYCLES_PER_ROUND if self.quick
                      else CYCLES_PER_ROUND)
            self._rounds[index] = [
                op for cycle in range(cycles)
                for op in self._cycle(rng, cycle == cycles // 2 - 1)]
        return self._rounds[index]

    # -- execution --------------------------------------------------------

    def ship(self) -> int:
        """Flush, then ship everything on disk to the follower."""
        self.wal.flush()
        applied = 0
        for shipment in disk_shipments(self.wal.path):
            self.shipped_bytes += len(shipment.payload)
            applied += self.follower.apply_shipment(shipment)
        return applied

    def run(self, op: Op):
        if op.cls == "_churn":
            for source in self.sources + self.twins:
                source.advance(CHURN_STEPS)
            return None
        if op.cls == "refresh":
            return self.warehouse.refresh()
        if op.cls == "ship":
            return self.ship()
        if op.cls == "read":
            return self.primary.run(op.payload[0]).rows
        if op.cls == "follower_read":
            return self.replica.run(op.payload[0]).rows
        self.warehouse.checkpoint(self.image_path)
        return self.wal.generation

    def canon(self, op: Op, answer) -> str:
        if op.cls == "refresh":
            return canon((answer.deltas_processed, answer.genes_upserted,
                          answer.proteins_upserted, answer.genes_deleted,
                          answer.conflicts_recorded,
                          answer.records_quarantined))
        if op.cls in ("read", "follower_read"):
            return unordered(answer)
        return canon(answer)

    def oracle(self, op: Op, answer) -> bool:
        database = (self.warehouse.db if op.cls == "read"
                    else self.follower.database)
        __, key, kind = op.payload
        return unordered(answer) == unordered(read_expected(
            kind, key, table_rows(database, "public_genes")))

    def finish(self) -> list[str]:
        """Crash, recover from the flushed bytes alone, compare."""
        self.ship()
        crash = os.path.join(self.directory, "crash")
        os.makedirs(crash)
        for entry in os.listdir(self.directory):
            if entry.startswith(WAL_NAME) or entry == IMAGE_NAME:
                shutil.copyfile(os.path.join(self.directory, entry),
                                os.path.join(crash, entry))
        fresh = Database()
        install_genomics(fresh)
        start = perf_counter()
        try:
            recovered, report = recover(os.path.join(crash, IMAGE_NAME),
                                        os.path.join(crash, WAL_NAME),
                                        database=fresh)
        except ReproError as error:
            return [f"recovery failed: {error}"]
        self.recovery = (perf_counter() - start, report.statements_applied)
        failures = []
        if not databases_equal(recovered, self.warehouse.db):
            failures.append("recovered database differs from the primary")
        if not databases_equal(self.follower.database, self.warehouse.db):
            failures.append("follower differs from the primary")
        return failures

    # -- the traced pass --------------------------------------------------

    def begin_trace(self, rec) -> None:
        self.rec = rec
        self.planners = {"read": planner_for(self.warehouse.db),
                         "follower_read": planner_for(
                             self.follower.database)}
        self.twin_monitors = [choose_monitor(twin) for twin in self.twins]
        self.wrappers = {twin.name: wrapper_for(twin.name)
                         for twin in self.twins}
        self.registry = MetricsRegistry()
        self._previous_registry = set_registry(self.registry)
        self.written = []          # genomic values the WAL encoded
        self.wal_bytes = 0
        self.delta_bytes = 0
        self.parsed = 0
        self.reports = []
        self.applied = 0
        self.shipped_before = self.shipped_bytes
        self.image_bytes = 0
        self.warehouse.db.attach_wal(self._timed_append)

    def end_trace(self, rec) -> None:
        self.wal.attach()
        set_registry(self._previous_registry)

    def _timed_append(self, sql, parameters) -> None:
        """The benchmark's own WAL sink: forwards to the real log under
        a span (nested in ``warehouse.refresh``, so refresh's self time
        excludes it)."""
        with self.rec.span("db.storage.wal_append"):
            self.wal.append(sql, parameters)
        if len(self.written) < SERIALIZER_SAMPLE:
            self.written.extend(
                value for value in parameters
                if not isinstance(value, (bool, int, float, str,
                                          type(None))))

    def run_traced(self, op: Op, rec):
        if op.cls == "_churn":
            self.run(op)
            # Replays of what the next refresh does inside itself.
            with rec.span("etl.monitors.poll"):
                deltas = [delta for monitor in self.twin_monitors
                          for delta in monitor.poll()]
            with rec.span("etl.wrappers.parse"):
                for delta in deltas:
                    if delta.after is not None:
                        self.wrappers[delta.source].parse_record(
                            delta.after)
                        self.parsed += 1
            self.delta_bytes += sum(len(delta.after or "")
                                    for delta in deltas)
            return None
        if op.cls == "refresh":
            before = os.path.getsize(self.wal.path)
            with rec.span("warehouse.refresh"):
                report = self.warehouse.refresh()
            self.wal_bytes += os.path.getsize(self.wal.path) - before
            self.reports.append(report)
            return report
        if op.cls == "ship":
            with rec.span("federation.replication.ship_apply"):
                applied = self.ship()
            self.applied += applied
            return applied
        if op.cls == "checkpoint":
            with rec.span("db.storage.checkpoint"):
                self.warehouse.checkpoint(self.image_path)
            self.image_bytes = os.path.getsize(self.image_path)
            return self.wal.generation
        return staged_biql(rec, self.planners[op.cls], op.payload[0])

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        rec = trace.rec
        cycles = max(1, rec.count("warehouse.refresh"))
        reads = sum(1 for op in trace.batch.ops
                    if op.cls in ("read", "follower_read"))
        values = statement_metrics(trace, statements=reads)
        counters = self.registry.snapshot()
        refresh_ms = rec.total_ms("warehouse.refresh")
        poll_ms = rec.total_ms("etl.monitors.poll")
        parse_ms = rec.total_ms("etl.wrappers.parse")
        ship_ms = rec.total_ms("federation.replication.ship_apply")
        deltas = sum(report.deltas_processed for report in self.reports)
        live_bytes = sum(len(source.snapshot()) for source in self.sources)
        values.update({
            "db.sql.statements_per_cycle": self._statements_in_a_cycle(),
            "db.storage.wal_append.ms_per_cycle":
                rec.total_ms("db.storage.wal_append") / cycles,
            "db.storage.wal_flushes_per_cycle":
                counters.get("storage_wal_flushes", 0.0) / cycles,
            "db.storage.wal_bytes_per_user_byte":
                self.wal_bytes / max(1, self.delta_bytes),
            "db.storage.image_bytes_per_user_byte":
                self.image_bytes / live_bytes,
            "db.storage.checkpoint.ms":
                rec.total_ms("db.storage.checkpoint")
                / max(1, rec.count("db.storage.checkpoint")),
            "etl.monitors.poll.ms_per_cycle": poll_ms / cycles,
            "etl.monitors.cost_units_per_delta":
                sum(report.monitor_cost_units for report in self.reports)
                / max(1, deltas),
            "etl.wrappers.parse.ms_per_record": parse_ms / max(1, self.parsed),
            "warehouse.refresh.ms_per_cycle": refresh_ms / cycles,
            "warehouse.refresh.self_ms_per_cycle":
                (rec.total_self_ms("warehouse.refresh")
                 - poll_ms - parse_ms) / cycles,
            "warehouse.deltas_per_cycle": deltas / cycles,
            "federation.replication.ship_apply.ms_per_cycle":
                ship_ms / cycles,
            "federation.replication.apply.stmts_per_s":
                self.applied / (ship_ms / 1000.0) if ship_ms else 0.0,
            "federation.replication.shipped_bytes_per_wal_byte":
                (self.shipped_bytes - self.shipped_before)
                / max(1, self.wal_bytes),
        })
        if self.recovery is not None:
            seconds, statements = self.recovery
            values["db.storage.recover.ms"] = seconds * 1000.0
            values["db.storage.recover.stmts_per_s"] = statements / seconds
        values.update(serializer_metrics(self.warehouse.db, self.written))
        return values

    def _statements_in_a_cycle(self) -> float:
        """SQL statements one cycle issues, counted from outside: run a
        cycle with ``repro.obs`` tracing on and count ``sql.parse``."""
        sink = InMemorySink()
        obs_trace.enable(1.0, sink=sink)
        try:
            for op in self._cycle(rng_for(self.seed, self.name, "count"),
                                  False):
                self.run(op)
        finally:
            obs_trace.disable()
        return float(sum(1 for span in sink.spans()
                         if span["name"] == "sql.parse"))
