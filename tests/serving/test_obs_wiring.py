"""Observability of the serving layer: metrics, spans, trace layers.

The contract: a queue-depth gauge and shed/hedge/budget counters land
in the metrics registry, every request (served or shed) gets a
``serving.request`` span annotated with its fate, queue wait runs
under its own ``queue.wait`` span, and the trace renderer therefore
shows queueing as a first-class *layer* next to source and mediator
time.
"""

import pytest

from repro import obs
from repro.serving import (
    BATCH,
    Request,
    ServingPolicy,
    overload_federation,
    synthetic_workload,
)
from tests.serving.conftest import quiet_federation


def gene_request(accession, arrival=0.0, **kw):
    return Request(kind="gene", params={"accession": accession},
                   arrival=arrival, **kw)


class TestMetrics:
    def run_workload(self):
        registry = obs.enable_metrics()
        try:
            server, mediator, sources, accessions = overload_federation()
            requests = synthetic_workload(accessions, count=80,
                                          load_factor=4.0, capacity=4,
                                          mean_service=3.0, seed=3)
            server.serve(requests)
        finally:
            obs.disable_metrics()
        return registry, server

    def test_serving_metrics_reach_the_registry(self):
        registry, server = self.run_workload()
        snapshot = registry.snapshot()
        assert snapshot["serving_admitted"] == server.queue.admitted
        assert "serving_queue_depth" in snapshot
        for name in server.source_names:
            assert f"serving_retry_tokens.{name}" in snapshot
            assert f"serving_concurrency_limit.{name}" in snapshot
        assert "serving_brownout_level" in snapshot

    def test_shed_and_hedge_counters_match_the_server(self):
        registry, server = self.run_workload()
        counters = registry.snapshot()
        for reason, total in server.queue.shed.items():
            assert counters[f"serving_shed.{reason}"] == total
        issued = sum(h.issued for h in server.hedgers.values())
        won = sum(h.won for h in server.hedgers.values())
        assert counters["serving_hedges_issued"] == issued
        assert counters["serving_hedges_won"] == won
        assert issued > 0               # the storm actually hedged

    def test_prometheus_text_carries_the_serving_group(self):
        registry, __ = self.run_workload()
        text = registry.to_prometheus_text()
        assert "serving_queue_depth" in text
        assert "serving_admitted" in text


class TestTraces:
    def traced_burst(self):
        """Capacity-1 burst: one runs, one queues, one is shed."""
        server, __, __, accessions = quiet_federation(
            ServingPolicy(capacity=1, deadline=25.0,
                          queue_capacity=1, brownout=False,
                          hedging=False, adaptive_concurrency=False,
                          retry_budget_ratio=None,
                          admission_wait_factor=100.0))
        sink = obs.InMemorySink()
        obs.enable(sample_rate=1.0, clock=server.timeline, sink=sink)
        try:
            results = server.serve([gene_request(accessions[0], 0.0),
                                    gene_request(accessions[1], 0.0),
                                    gene_request(accessions[2], 0.0)])
        finally:
            obs.disable()
        spans = [span for trace in sink.traces for span in trace]
        return results, spans

    def test_every_request_gets_a_serving_span(self):
        results, spans = self.traced_burst()
        serving = [s for s in spans if s["name"] == "serving.request"]
        assert len(serving) == 3
        admitted = [s for s in serving if s["attrs"].get("admitted")]
        shed = [s for s in serving if "shed" in s["attrs"]]
        assert len(admitted) == 2
        assert len(shed) == 1 and shed[0]["attrs"]["shed"] == "queue_full"

    def test_queue_wait_is_its_own_span_with_virtual_time(self):
        results, spans = self.traced_burst()
        waits = [s for s in spans if s["name"] == "queue.wait"]
        assert len(waits) == 2          # both executed requests
        queued = [r for r in results if not r.shed and r.queue_wait > 0]
        assert len(queued) == 1
        measured = max(s.get("virtual_ms") or 0.0 for s in waits)
        assert measured == pytest.approx(queued[0].queue_wait)

    def test_render_shows_queue_as_a_layer(self):
        __, spans = self.traced_burst()
        rendered = obs.render_trace(spans)
        assert "queue.wait" in rendered
        # The per-layer table aggregates by prefix: queueing is a
        # first-class layer alongside source/mediator time.
        layers = obs.layer_breakdown(spans)
        assert "queue" in layers
        assert layers["queue"]["virtual_ms"] > 0
        assert "serving" in layers

    def test_shed_health_carries_the_trace_id(self):
        server, __, __, accessions = quiet_federation(
            ServingPolicy(capacity=1, deadline=25.0, queue_capacity=0,
                          brownout=False))
        sink = obs.InMemorySink()
        obs.enable(sample_rate=1.0, clock=server.timeline, sink=sink)
        try:
            first, shed = server.serve([
                gene_request(accessions[0], 0.0),
                gene_request(accessions[1], 0.0, priority=BATCH),
            ])
        finally:
            obs.disable()
        assert shed.shed
        assert shed.health.trace_id is not None
        trace_ids = {span["trace"] for trace in sink.traces
                     for span in trace}
        assert shed.health.trace_id in trace_ids
