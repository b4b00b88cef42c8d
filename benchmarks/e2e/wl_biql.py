"""``biql_interactive`` and ``algebra_scan``: BiQL reads of one warehouse.

Both run ``BiqlSession.run`` against a warehouse integrated from five
sources (row layout, default indexes).  ``biql_interactive`` is short
reads where the algebra does almost nothing and the fixed per-statement
cost (BiQL parse + SQL parse + plan) is visible — the workload where a
statement/plan cache or an access-path fix must show.  ``algebra_scan``
is the opposite: the executor and ``core.ops`` do nearly all the work
and parsing is noise, so a compiled-expression executor must show here
and a statement cache must show nothing.

Class weights are chosen so the pooled p50 and p95 each fall inside one
class's body, never on a boundary between a cheap and a dear class.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.core import ops
from repro.core.types import DnaSequence
from repro.lang.biql import BiqlSession
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)
from repro.sources.universe import ORGANISMS
from repro.warehouse import UnifyingDatabase

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
from stages import (
    BIQL_STAGES,
    SQL_STAGES,
    obs_overhead,
    planner_for,
    staged_biql,
    statement_metrics,
)

FIVE_SOURCES = (GenBankRepository, EmblRepository, SwissProtRepository,
                AceRepository, RelationalRepository)


def table_rows(database, name: str) -> list[dict[str, Any]]:
    """A table's rows as plain dicts, read past the SQL engine — what
    the oracles recompute answers from."""
    table = database.catalog.table(name)
    columns = table.schema.column_names
    return [dict(zip(columns, row)) for __, row in table.rows()]


def read_text(kind: str, rng, accessions: Zipf) -> tuple[str, Any]:
    """(BiQL text, key) of one short read: ``point``, ``count`` or
    ``organism`` — shared with ``etl_durable``'s reads."""
    if kind == "point":
        accession = accessions.draw(rng)
        return f"FIND genes WHERE accession IS '{accession}'", accession
    organism = rng.choice(ORGANISMS)
    if kind == "count":
        return f"COUNT genes WHERE organism IS '{organism}'", organism
    return (f"FIND genes WHERE organism IS '{organism}' "
            f"SHOW accession, name, length", organism)


def read_expected(kind: str, key: Any, genes: list[dict]) -> list[tuple]:
    """The answer of a :func:`read_text` read, in plain Python."""
    if kind == "point":
        return [(row["accession"], row["name"], row["organism"],
                 row["length"])
                for row in genes if row["accession"] == key]
    if kind == "count":
        return [(sum(1 for row in genes if row["organism"] == key),)]
    return [(row["accession"], row["name"], row["length"])
            for row in genes if row["organism"] == key]


def unordered(answer: list[tuple]) -> str:
    """Canonical text of an answer whose row order is the plan's."""
    return canon(sorted(answer, key=canon))


class WarehouseReads(Workload):
    """A loaded warehouse, a BiQL session, one op list per seed."""

    stages = BIQL_STAGES + SQL_STAGES
    size = 400
    quick_size = 60
    round_size = 0
    shares: dict[str, float] = {}
    #: Classes whose row order is part of the answer.
    ordered: frozenset = frozenset()

    def build(self) -> None:
        universe = Universe(
            seed=DATA_SEED,
            size=self.quick_size if self.quick else self.size)
        self.warehouse = UnifyingDatabase(
            [source(universe) for source in FIVE_SOURCES])
        start = perf_counter()
        report = self.warehouse.initial_load()
        self.build_metrics = {
            "warehouse.initial_load.records_per_s":
                report.deltas_processed / (perf_counter() - start)}
        self.session = BiqlSession(self.warehouse)

    def prepare(self) -> None:
        database = self.warehouse.db
        self.genes = sorted(table_rows(database, "public_genes"),
                            key=lambda row: row["accession"])
        self.proteins = sorted(table_rows(database, "public_proteins"),
                               key=lambda row: row["accession"])
        self.prepare_keys(rng_for(self.seed, self.name, "keys"))
        rng = rng_for(self.seed, self.name)
        # Tenth scale, but never so short that a class drops out.
        size = (max(self.round_size // 10, 2 * len(self.shares))
                if self.quick else self.round_size)
        self._ops = [self.make_op(cls, rng)
                     for cls in stratified(rng, self.shares, size)]

    def prepare_keys(self, rng) -> None:
        """Key populations the op generator draws from."""

    def make_op(self, cls: str, rng) -> Op:
        raise NotImplementedError

    def expected(self, op: Op) -> list[tuple]:
        """*op*'s answer recomputed in plain Python from the tables."""
        raise NotImplementedError

    def round_ops(self, index: int) -> list[Op]:
        return self._ops

    def oracle_ops(self) -> list[Op]:
        rng = rng_for(self.seed, self.name, "oracle")
        return [self.make_op(cls, rng) for cls in self.oracle_classes
                for __ in range(ORACLE_CHECKS_PER_CLASS)]

    def run(self, op: Op) -> list[tuple]:
        return self.session.run(op.payload[0]).rows

    def begin_trace(self, rec) -> None:
        self.planner = planner_for(self.warehouse.db)

    def run_traced(self, op: Op, rec) -> list[tuple]:
        return staged_biql(rec, self.planner, op.payload[0])

    def canon(self, op: Op, answer: list[tuple]) -> str:
        return canon(answer) if op.cls in self.ordered else unordered(answer)

    def oracle(self, op: Op, answer: list[tuple]) -> bool:
        return self.canon(op, answer) == self.canon(op, self.expected(op))

    def replay_ops(self, trace: TracedPass,
                   replay: Callable[[Op, list], Any]) -> dict[str, float]:
        """Re-execute, outside the engine, the ``core.ops`` work each
        traced op's class maps to; compare with its execute span."""
        execute = trace.rec.by_op("db.sql.execute")
        replayed_ms = execute_ms = 0.0
        replayed = 0
        for op_id, (op, answer) in enumerate(zip(trace.batch.ops,
                                                 trace.batch.answers)):
            start = perf_counter()
            if replay(op, answer) is None:
                continue
            replayed_ms += (perf_counter() - start) * 1000.0
            execute_ms += execute.get(op_id, 0.0)
            replayed += 1
        if not replayed:
            return {}
        return {
            "core.ops.replay.ms_per_op": replayed_ms / replayed,
            "core.ops.share_of_execute": replayed_ms / execute_ms,
        }

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        return statement_metrics(trace)


class BiqlInteractive(WarehouseReads):
    name = "biql_interactive"
    round_size = 500
    shares = {"point": 35, "head": 15, "count": 10, "organism": 10,
              "extent": 10, "motif10": 10, "join": 10}
    ordered = frozenset({"extent", "join"})
    #: Share of ``motif10`` ops whose motif is cut from a stored gene
    #: (a match the index must find); the rest are random 10-mers.
    MOTIF_HIT_SHARE = 0.7

    def prepare_keys(self, rng) -> None:
        self._zipf = Zipf([row["accession"] for row in self.genes], rng)
        lengths = sorted(row["length"] for row in self.genes)
        self._bounds = lengths[len(lengths) // 5:4 * len(lengths) // 5]

    def make_op(self, cls: str, rng) -> Op:
        genes = self.genes
        if cls in ("point", "count", "organism"):
            return Op(cls, read_text(cls, rng, self._zipf))
        if cls == "head":
            shown = rng.choice(("name", "organism", "length"))
            return Op(cls, (f"FIND genes SHOW accession, {shown} LIMIT 5",
                            shown))
        if cls == "extent":
            bound = rng.choice(self._bounds)
            return Op(cls, (f"FIND genes WHERE length > {bound} "
                            f"SHOW accession, gc SORT BY gc DESC LIMIT 8",
                            bound))
        if cls == "motif10":
            motif = random_dna(rng, 10)
            if rng.random() < self.MOTIF_HIT_SHARE:
                for __ in range(8):   # skip the rare window holding an N
                    text = str(rng.choice(genes)["sequence"])
                    offset = rng.randrange(len(text) - 10)
                    if set(text[offset:offset + 10]) <= set("ACGT"):
                        motif = text[offset:offset + 10]
                        break
            return Op(cls, (f"FIND genes WHERE sequence CONTAINS '{motif}' "
                            f"SHOW accession", motif))
        # The whole join, sorted: the one class clearly dearer than the
        # rest, so the pooled p95 sits in the middle of its body and not
        # in the overlapping tails of point and motif10.
        direction = rng.choice(("ASC", "DESC"))
        limit = rng.choice((10, 15, 20, 25, 30))
        return Op("join", (f"FIND gene_products SORT BY accession "
                           f"{direction} LIMIT {limit}", (direction, limit)))

    def canon(self, op: Op, answer: list[tuple]) -> str:
        if op.cls == "head":
            # LIMIT without SORT BY: which rows is the plan's choice.
            return f"{len(answer)} rows"
        return super().canon(op, answer)

    def oracle(self, op: Op, answer: list[tuple]) -> bool:
        if op.cls == "head":
            shown = op.payload[1]
            known = {(row["accession"], row[shown]) for row in self.genes}
            return (len(answer) == min(5, len(self.genes))
                    and set(answer) <= known)
        if op.cls == "extent":
            # Rows tied on gc may come back in either order.
            want = self.expected(op)
            known = {(row["accession"], row["gc"]) for row in self.genes
                     if row["length"] > op.payload[1]}
            return ([gc for __, gc in answer] == [gc for __, gc in want]
                    and set(answer) <= known)
        return super().oracle(op, answer)

    def expected(self, op: Op) -> list[tuple]:
        key = op.payload[1]
        genes = self.genes
        if op.cls in ("point", "count", "organism"):
            return read_expected(op.cls, key, genes)
        if op.cls == "extent":
            matching = sorted((row for row in genes if row["length"] > key),
                              key=lambda row: -row["gc"])
            return [(row["accession"], row["gc"]) for row in matching[:8]]
        if op.cls == "motif10":
            return [(row["accession"],) for row in genes
                    if ops.contains(row["sequence"], key)]
        protein_length = {row["accession"]: row["length"]
                          for row in self.proteins}
        direction, limit = key
        joined = [(row["accession"], row["name"], row["length"],
                   protein_length[row["accession"]])
                  for row in genes if row["accession"] in protein_length]
        if direction == "DESC":
            joined.reverse()
        return joined[:limit]

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        values = super().layer_metrics(trace)
        table = self.warehouse.db.catalog.table("public_genes")
        index = next(index for index in table.indexes_on("sequence")
                     if hasattr(index, "search_contains"))
        by_id = {row_id: row for row_id, row in table.rows()}
        position = table.schema.position("sequence")
        rec = trace.rec
        candidates = matches = 0

        def recheck(op: Op, answer: list) -> "bool | None":
            # What the executor re-verifies after IndexContainsScan:
            # contains() over the index's candidate rows.
            nonlocal candidates, matches
            if op.cls != "motif10":
                return None
            with rec.span("db.index.kmer.search"):
                found = index.search_contains(op.payload[1])
            candidates += len(found)
            matches += len(answer)
            for row_id in found:
                ops.contains(by_id[row_id][position], op.payload[1])
            return True

        values.update(self.replay_ops(trace, recheck))
        searches = rec.count("db.index.kmer.search")
        if searches:
            values["db.index.kmer.search.ms_per_call"] = (
                rec.total_ms("db.index.kmer.search") / searches)
            values["db.index.kmer.useful_ratio"] = (
                matches / candidates if candidates else 1.0)
        values["obs.enabled_overhead_frac"] = obs_overhead(
            self, self._ops[:len(self._ops) // 2])
        return values


class AlgebraScan(WarehouseReads):
    name = "algebra_scan"
    #: A smaller universe than ``biql_interactive``'s (144 genes, 75
    #: proteins): every op scans a whole table, and at 4–40 ms an op a
    #: 10-s run times ~500 of them, so the pooled p95 has ≥ 10 samples
    #: beyond it.
    size = 150
    round_size = 50
    shares = {"computed": 20, "resembles": 45, "motif5": 15,
              "express": 10, "proteins": 10}

    def prepare_keys(self, rng) -> None:
        self._spread = rng.random()

    def make_op(self, cls: str, rng) -> Op:
        if cls == "computed":
            return Op(cls, ("FIND genes SHOW accession, tm, entropy, orfs",
                            None))
        if cls == "resembles":
            # A 60–200 bp fragment of a stored gene, 5 % mutated.  The
            # lengths (which set the cost) step through 60–200 by the
            # golden ratio: evenly spread in every op list, whatever
            # the seed.
            self._spread = (self._spread + 0.6180339887) % 1.0
            text = str(rng.choice(self.genes)["sequence"])
            length = min(60 + int(141 * self._spread), len(text))
            offset = rng.randrange(len(text) - length + 1)
            fragment = list(text[offset:offset + length])
            for position in rng.sample(range(length), length // 20):
                fragment[position] = rng.choice("ACGT")
            fragment = "".join("A" if base == "N" else base
                               for base in fragment)
            return Op(cls, (f"FIND genes WHERE sequence RESEMBLES "
                            f"'{fragment}' SHOW accession", fragment))
        if cls == "motif5":
            motif = random_dna(rng, 5)
            return Op(cls, (f"FIND genes WHERE sequence CONTAINS '{motif}' "
                            f"SHOW accession, tm", motif))
        if cls == "express":
            return Op(cls, ("FIND genes SHOW accession, protein", None))
        return Op("proteins", ("FIND proteins SHOW accession, mass, pi, "
                               "gravy", None))

    def expected(self, op: Op) -> list[tuple]:
        key = op.payload[1]
        genes = self.genes
        if op.cls == "computed":
            return [(row["accession"],
                     ops.melting_temperature(row["sequence"]),
                     ops.shannon_entropy(row["sequence"]),
                     len(ops.find_orfs(row["sequence"], 20)))
                    for row in genes]
        if op.cls == "resembles":
            probe = DnaSequence(key)
            return [(row["accession"],) for row in genes
                    if ops.resembles(row["sequence"], probe, 0.7)]
        if op.cls == "motif5":
            return [(row["accession"],
                     ops.melting_temperature(row["sequence"]))
                    for row in genes if ops.contains(row["sequence"], key)]
        if op.cls == "express":
            return [(row["accession"],
                     str(ops.express(row["gene"]).sequence))
                    for row in genes]
        return [(row["accession"], ops.molecular_weight(row["sequence"]),
                 ops.isoelectric_point(row["sequence"]),
                 ops.hydropathy(row["sequence"]))
                for row in self.proteins]

    def layer_metrics(self, trace: TracedPass) -> dict[str, float]:
        values = super().layer_metrics(trace)
        resembles_s = 0.0
        resembles_calls = 0

        def recompute(op: Op, answer: list) -> bool:
            # The oracle *is* the algebra work of the class, run over
            # the rows the query scanned.
            nonlocal resembles_s, resembles_calls
            start = perf_counter()
            self.expected(op)
            if op.cls == "resembles":
                resembles_s += perf_counter() - start
                resembles_calls += len(self.genes)
            return True

        values.update(self.replay_ops(trace, recompute))
        if resembles_calls:
            values["core.ops.resembles.ms_per_call"] = (
                resembles_s * 1000.0 / resembles_calls)
        return values
