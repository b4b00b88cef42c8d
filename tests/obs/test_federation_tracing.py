"""Tracing across the real federation: ids, threads, layers, metrics.

These are the end-to-end regressions the observability subsystem was
built for: one query's spans correlate with its ``QueryHealth`` and
``SourceError`` through a shared trace id, per-source spans parent
correctly under real ``ThreadedPool`` fan-out, and the existing cost
structs publish into the metrics registry without any API change.
"""

import pytest

from repro import obs
from repro.errors import SourceError
from repro.lang.biql import BiqlSession
from repro.mediator import CachedMediator, Mediator, QueryHealth, RetryPolicy
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase
from tests.obs.jsonl import load_traces


def _federation(size=16, source_count=4):
    universe = Universe(seed=91, size=size)
    timeline = VirtualClock()
    builders = (GenBankRepository, EmblRepository, AceRepository,
                SwissProtRepository)
    sources = [FaultyRepository(builder(universe), timeline, seed=41 + i)
               for i, builder in enumerate(builders[:source_count])]
    return universe, timeline, sources


def _spans_named(spans, name):
    return [span for span in spans if span["name"] == name]


class TestTraceIdCorrelation:
    def test_health_and_jsonl_sink_agree_end_to_end(self, tmp_path):
        """The satellite regression: ids match across health + JSONL."""
        __, timeline, sources = _federation()
        sources[0].fail_next(1, "snapshot")      # GenBank is snapshot-only
        mediator = Mediator(
            sources,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                     jitter=0.0),
            timeline=timeline,
        )
        path = tmp_path / "trace.jsonl"
        obs.enable(clock=timeline, sink=obs.JsonlTraceSink(path))
        try:
            answers = mediator.find_genes()
        finally:
            obs.disable()
        trace_id = answers.health.trace_id
        assert trace_id is not None
        traces = load_traces(path)
        assert set(traces) == {trace_id}
        spans = traces[trace_id]
        retried = [span for span in _spans_named(spans, "source.attempt")
                   if span["attrs"]["source"] == "GenBank"]
        assert retried[0]["attrs"]["retries"] == 1

    def test_source_error_carries_the_trace_id(self):
        __, timeline, sources = _federation(source_count=1)
        sources[0].fail_next(5)
        mediator = Mediator(
            sources,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=1.0,
                                     jitter=0.0),
            timeline=timeline,
        )
        wrapper = mediator.wrappers[0]
        obs.enable(clock=timeline)
        try:
            with obs.span("query.root") as root:
                health = QueryHealth()
                health.trace_id = obs.current_trace_id()
                with pytest.raises(SourceError) as caught:
                    wrapper.resilient("fetch_all", wrapper.fetch_all,
                                      health)
        finally:
            obs.disable()
        assert caught.value.trace_id == root.trace_id
        assert health.trace_id == root.trace_id

    def test_untraced_queries_carry_no_trace_id(self):
        __, timeline, sources = _federation()
        answers = Mediator(sources, timeline=timeline).find_genes()
        assert answers.health.trace_id is None

    def test_distinct_queries_get_distinct_trace_ids(self):
        __, timeline, sources = _federation()
        mediator = Mediator(sources, timeline=timeline)
        obs.enable(clock=timeline)
        try:
            first = mediator.find_genes()
            second = mediator.find_genes()
        finally:
            obs.disable()
        assert first.health.trace_id != second.health.trace_id
        assert first.health.trace_id is not None


class TestThreadedFanOutIntegrity:
    @pytest.mark.parametrize("width", [4, 6])
    def test_every_span_parents_inside_its_own_trace(self, width):
        """Parent/child integrity under real ThreadedPool fan-out."""
        __, timeline, sources = _federation()
        mediator = Mediator(sources, timeline=timeline,
                            max_concurrency=width)
        assert mediator.pool.parallel
        sink = obs.InMemorySink()
        obs.enable(clock=timeline, sink=sink)
        try:
            for __ in range(3):
                mediator.find_genes()
        finally:
            obs.disable()
        assert len(sink.traces) == 3
        for spans in sink.traces:
            ids = {span["span"] for span in spans}
            trace_ids = {span["trace"] for span in spans}
            assert len(trace_ids) == 1
            roots = [span for span in spans if span["parent"] is None]
            assert len(roots) == 1
            assert roots[0]["name"] == "mediator.find_genes"
            for span in spans:
                if span["parent"] is not None:
                    assert span["parent"] in ids     # no orphans
            fan_out = _spans_named(spans, "mediator.fan_out")[0]
            attempts = _spans_named(spans, "source.attempt")
            assert len(attempts) == len(sources)
            assert {span["parent"] for span in attempts} \
                == {fan_out["span"]}
            assert sorted(span["attrs"]["source"] for span in attempts) \
                == sorted(s.name for s in sources)


class TestWholeStackSpans:
    def test_biql_to_sql_spans_share_the_root(self):
        universe, __, __ = _federation()
        warehouse = UnifyingDatabase(
            [GenBankRepository(universe), EmblRepository(universe)],
            with_indexes=False)
        warehouse.initial_load()
        session = BiqlSession(warehouse)
        sink = obs.InMemorySink()
        obs.enable(sink=sink)
        try:
            session.run("COUNT genes")
        finally:
            obs.disable()
        (spans,) = sink.traces
        names = [span["name"] for span in spans]
        for expected in ("biql.query", "biql.parse", "biql.translate",
                         "sql.parse", "sql.plan", "sql.execute"):
            assert expected in names, expected
        roots = [span for span in spans if span["parent"] is None]
        assert [span["name"] for span in roots] == ["biql.query"]

    def test_monitor_and_warehouse_spans_under_a_refresh(self):
        universe, __, __ = _federation()
        genbank = GenBankRepository(universe)
        embl = EmblRepository(universe)
        warehouse = UnifyingDatabase([genbank, embl], with_indexes=False)
        warehouse.initial_load()
        genbank.advance(2)
        embl.advance(2)
        sink = obs.InMemorySink()
        obs.enable(sink=sink)
        try:
            warehouse.refresh()
        finally:
            obs.disable()
        (spans,) = sink.traces
        names = [span["name"] for span in spans]
        assert names.count("monitor.poll") == 2
        roots = [span for span in spans if span["parent"] is None]
        assert [span["name"] for span in roots] == ["warehouse.refresh"]

    def test_cache_spans_annotate_hits_and_misses(self):
        __, timeline, sources = _federation()
        cached = CachedMediator(sources, timeline=timeline)
        sink = obs.InMemorySink()
        obs.enable(clock=timeline, sink=sink)
        try:
            cached.find_genes()
            cached.find_genes()
        finally:
            obs.disable()
        cache_spans = [span for span in sink.spans()
                       if span["name"] == "cache.find_genes"]
        assert [span["attrs"]["cache"] for span in cache_spans] \
            == ["miss", "hit"]


class TestMetricsPublication:
    def test_existing_cost_structs_publish_without_api_change(self):
        __, timeline, sources = _federation()
        sources[0].fail_next(1, "snapshot")      # GenBank is snapshot-only
        mediator = Mediator(
            sources,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                     jitter=0.0),
            timeline=timeline,
        )
        registry = obs.enable_metrics()
        try:
            mediator.find_genes()
        finally:
            obs.disable_metrics()
        counters = registry.snapshot()
        assert counters["mediation_queries_answered"] == 1.0
        assert counters["mediation_retries"] == 1.0
        assert counters["mediation_source_requests"] > 0
        assert counters["faults_failures"] == 1.0

    def test_disabled_registry_leaves_struct_counters_intact(self):
        __, timeline, sources = _federation()
        mediator = Mediator(sources, timeline=timeline)
        mediator.find_genes()
        assert mediator.cost.queries_answered == 1
        assert obs.get_registry() is None
