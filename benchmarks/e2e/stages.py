"""Staged forms of the one-call entry points, and shared replays.

The traced pass measures each layer *from outside*: instead of
``BiqlSession.run`` / ``Database.execute`` it calls the public function
of every stage in turn, each under one of the benchmark's spans.  What
the one-call form does besides (span bookkeeping, ``ResultSet``
construction) shows up as ``bench.unattributed_frac``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.db.sql.optimizer import Planner
from repro.db.sql.parser import parse as parse_sql
from repro.lang.biql import parse_biql, translate

from harness import TracedPass
from spans import Recorder

BIQL_STAGES = ("lang.biql.parse", "lang.biql.translate")
SQL_STAGES = ("db.sql.parse", "db.sql.plan", "db.sql.execute")


def planner_for(database) -> Planner:
    return Planner(database, optimize=database.optimize)


def staged_sql(rec: Recorder, planner: Planner, sql: str,
               parameters: Sequence[Any]) -> list[tuple]:
    with rec.span("db.sql.parse"):
        statement = parse_sql(sql)
    with rec.span("db.sql.plan"):
        plan = planner.plan_select(statement)
    with rec.span("db.sql.execute"):
        return list(plan.execute(parameters, None))


def staged_biql(rec: Recorder, planner: Planner, text: str) -> list[tuple]:
    with rec.span("lang.biql.parse"):
        query = parse_biql(text)
    with rec.span("lang.biql.translate"):
        sql, parameters = translate(query)
    return staged_sql(rec, planner, sql, parameters)


def statement_metrics(trace: TracedPass,
                      statements: "int | None" = None) -> dict[str, float]:
    """Per-statement cost of the language and SQL stages.  *statements*
    defaults to every traced op (each op is one statement)."""
    count = max(1, statements if statements is not None
                else len(trace.batch.ops))
    rec = trace.rec
    parse, plan, execute = (rec.total_ms(name) for name in SQL_STAGES)
    return {
        "lang.biql.parse.ms_per_op": rec.total_ms(BIQL_STAGES[0]) / count,
        "lang.biql.translate.ms_per_op":
            rec.total_ms(BIQL_STAGES[1]) / count,
        "db.sql.parse.ms_per_op": parse / count,
        "db.sql.plan.ms_per_op": plan / count,
        "db.sql.execute.ms_per_op": execute / count,
        "db.sql.parse_plan_share":
            (parse + plan) / max(parse + plan + execute, 1e-12),
    }


def serializer_metrics(database, values: Iterable[Any]) -> dict[str, float]:
    """Replay the adapter's serializers over *values* (the genomic
    values a workload wrote): µs per value each way."""
    typed = [(database.catalog.opaque_type_for(value), value)
             for value in values]
    typed = [(opaque, value) for opaque, value in typed
             if opaque is not None]
    if not typed:
        return {}
    start = perf_counter()
    encoded = [(opaque, opaque.serialize(value)) for opaque, value in typed]
    middle = perf_counter()
    for opaque, data in encoded:
        opaque.deserialize(data)
    end = perf_counter()
    return {
        "adapter.encode.us_per_value": (middle - start) * 1e6 / len(typed),
        "adapter.decode.us_per_value": (end - middle) * 1e6 / len(typed),
    }


def obs_overhead(workload, ops) -> float:
    """What ``repro.obs`` tracing costs when switched on: *ops* run
    alternately with the tracer off and on (100 % sampling, in-memory
    sink); ops sharing a timing key are compared, weighted by count."""
    from repro.obs import trace as obs_trace
    from repro.obs.export import InMemorySink

    seconds: dict[tuple, list[float]] = {}
    turn = 0
    for op in ops:
        if not op.timed:
            workload.run(op)
            continue
        traced = turn % 2 == 1
        turn += 1
        if traced:
            obs_trace.enable(1.0, sink=InMemorySink())
        try:
            start = perf_counter()
            answer = workload.run(op)
            took = perf_counter() - start
        finally:
            if traced:
                obs_trace.disable()
        seconds.setdefault((workload.timing_key(op, answer), traced),
                           []).append(took)
    extra = base = 0.0
    for (key, traced), on in seconds.items():
        off = seconds.get((key, False))
        if traced and off:
            weight = len(on) + len(off)
            extra += weight * (sum(on) / len(on) - sum(off) / len(off))
            base += weight * sum(off) / len(off)
    return extra / base if base else 0.0
